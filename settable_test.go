package gates_test

import (
	"reflect"
	"slices"
	"testing"

	"github.com/gates-middleware/gates"
	"github.com/gates-middleware/gates/internal/adapt"
	"github.com/gates-middleware/gates/internal/netsim"
	"github.com/gates-middleware/gates/internal/pipeline"
)

// TestSettableSurface pins the exported fields of the four configuration
// structs a caller fills in. A constant that nothing varies belongs beside
// the code that reads it, not in one of these structs: a new field must be
// added to this list on purpose, and a removed one taken out of it.
func TestSettableSurface(t *testing.T) {
	for _, tc := range []struct {
		typ  reflect.Type
		want []string
	}{
		{reflect.TypeOf(adapt.Options{}), []string{
			"Capacity", "Window", "P1", "P2", "P3", "Phi2",
			"DisableCongestionPriority", "DownstreamSign",
		}},
		{reflect.TypeOf(pipeline.StageConfig{}), []string{
			"QueueCapacity", "Adapt", "DisableAdaptation", "AdaptInterval",
			"AdjustEvery", "BatchSize", "ComputeQuantum", "ReplayBuffer",
			"OnAdjust", "OnObserve",
		}},
		{reflect.TypeOf(netsim.LinkConfig{}), []string{"Bandwidth", "Quantum"}},
		{reflect.TypeOf(gates.GridOptions{}), []string{"TimeScale"}},
	} {
		var got []string
		for i := 0; i < tc.typ.NumField(); i++ {
			if f := tc.typ.Field(i); f.IsExported() {
				got = append(got, f.Name)
			}
		}
		if !slices.Equal(got, tc.want) {
			t.Errorf("%s: exported fields %v, want %v", tc.typ, got, tc.want)
		}
	}
}
