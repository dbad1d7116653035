// Package compsteer implements the paper's second application template:
// data-stream processing for computational steering.
//
// A simulation running on one machine generates a stream of intermediate
// mesh values; the values are sampled, communicated to another machine, and
// analyzed there, with analysis time linear in the data volume. The sampling
// rate — the fraction of generated values forwarded to the analysis — is the
// application's adjustment parameter: the middleware raises it while the
// analysis keeps up and lowers it when processing (Figure 8) or the network
// (Figure 9) becomes the constraint.
package compsteer

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"github.com/gates-middleware/gates/internal/adapt"
	"github.com/gates-middleware/gates/internal/pipeline"
)

// ParamName is the sampler's adjustment-parameter name.
const ParamName = "sampling-rate"

// DefaultSamplerSpec returns the paper's Figure 8 parameter specification:
// initial sampling factor 0.13 over [0.01, 1] in steps of 0.01; increasing
// the rate slows processing and raises accuracy.
func DefaultSamplerSpec() adapt.ParamSpec {
	return adapt.ParamSpec{
		Name:      ParamName,
		Initial:   0.13,
		Min:       0.01,
		Max:       1.0,
		Step:      0.01,
		Direction: adapt.IncreaseSlowsProcessing,
	}
}

// SimulationSource models the running simulation: it produces mesh data at
// a fixed rate for a fixed virtual duration. With Regions > 0 each packet
// carries a MeshChunk of real values; one region develops a feature
// (elevated values) that the analysis stage can detect and steer on.
type SimulationSource struct {
	// GenRate is the data generation rate in bytes per virtual second.
	GenRate int
	// Duration is how long the simulation runs (virtual time).
	Duration time.Duration
	// PacketBytes is the mesh-update granularity (default 16 bytes).
	PacketBytes int
	// Regions, when positive, attaches MeshChunk payloads cycling
	// through this many grid regions.
	Regions int
	// HotRegion is the region that develops a feature during the middle
	// half of the run (values elevated by 3).
	HotRegion int
	// Seed makes the mesh values reproducible.
	Seed int64
}

// Run implements pipeline.Source.
func (s *SimulationSource) Run(ctx *pipeline.Context, out *pipeline.Emitter) error {
	if s.GenRate <= 0 {
		return fmt.Errorf("compsteer: GenRate %d must be positive", s.GenRate)
	}
	pb := s.PacketBytes
	if pb <= 0 {
		pb = 16
	}
	interval := time.Duration(float64(pb) / float64(s.GenRate) * float64(time.Second))
	n := int(s.Duration / interval)
	var rng *rand.Rand
	if s.Regions > 0 {
		rng = rand.New(rand.NewSource(s.Seed))
	}
	for i := 0; i < n; i++ {
		select {
		case <-ctx.Done():
			return nil
		default:
		}
		ctx.ChargeCompute(interval) // generation pacing
		pkt := pipeline.NewPacket(nil, 1, pb)
		if s.Regions > 0 {
			region := i % s.Regions
			vals := make([]float64, pb/8+1)
			for j := range vals {
				vals[j] = rng.NormFloat64()
			}
			if region == s.HotRegion && i >= n/4 && i < 3*n/4 {
				for j := range vals {
					vals[j] += 3 // the feature the analysis should catch
				}
			}
			pkt.Value = &MeshChunk{Region: region, Values: vals}
		}
		if err := out.Emit(pkt); err != nil {
			return err
		}
	}
	return nil
}

// Sampler forwards a tunable fraction of the simulation's output. It uses
// deterministic credit-based thinning so the forwarded volume tracks the
// suggested rate exactly.
type Sampler struct {
	// Spec bounds the sampling-rate parameter; the zero value selects
	// DefaultSamplerSpec.
	Spec adapt.ParamSpec

	param  *adapt.Param
	credit float64
}

// Init implements pipeline.Processor: it exposes the sampling rate to the
// middleware.
func (s *Sampler) Init(ctx *pipeline.Context) error {
	spec := s.Spec
	if spec.Name == "" {
		spec = DefaultSamplerSpec()
	}
	p, err := ctx.SpecifyParam(spec)
	if err != nil {
		return err
	}
	s.param = p
	return nil
}

// Rate returns the middleware's current suggested sampling rate.
func (s *Sampler) Rate() float64 {
	if s.param == nil {
		return 0
	}
	return s.param.Value()
}

// Process implements pipeline.Processor.
func (s *Sampler) Process(_ *pipeline.Context, pkt *pipeline.Packet, out *pipeline.Emitter) error {
	s.credit += s.param.Value()
	if s.credit < 1 {
		return nil
	}
	s.credit--
	return out.Emit(pipeline.NewPacket(pkt.Value, pkt.ItemCount(), pkt.WireSize))
}

// Finish implements pipeline.Processor.
func (s *Sampler) Finish(*pipeline.Context, *pipeline.Emitter) error { return nil }

// Snapshot implements pipeline.Snapshotter: the sampler's only migratable
// state is its thinning credit (the rate parameter lives with the stage's
// adaptation controller, which survives migration in place).
func (s *Sampler) Snapshot() ([]byte, error) {
	return json.Marshal(struct {
		Credit float64 `json:"credit"`
	}{Credit: s.credit})
}

// Restore implements pipeline.Snapshotter.
func (s *Sampler) Restore(data []byte) error {
	var w struct {
		Credit float64 `json:"credit"`
	}
	if err := json.Unmarshal(data, &w); err != nil {
		return fmt.Errorf("compsteer: restore sampler: %w", err)
	}
	// A running sampler's credit stays in [0, 1); any other value would
	// forward every packet or none, whatever the rate says.
	if !(w.Credit >= 0 && w.Credit < 1) {
		return errors.New("compsteer: restore sampler: credit outside [0, 1)")
	}
	s.credit = w.Credit
	return nil
}

// Analyzer is the post-processing stage; its time is linear in the volume
// of data that survives sampling, at CostPerByte. With a FeatureThreshold
// set and a downstream stage connected, it emits a SteeringCommand whenever
// a MeshChunk's values exceed the threshold — the detection half of the
// steering loop.
type Analyzer struct {
	// CostPerByte is the analysis cost per received byte.
	CostPerByte time.Duration
	// FeatureThreshold, when non-zero, turns on feature detection over
	// MeshChunk payloads.
	FeatureThreshold float64

	bytes    uint64
	detected uint64
}

// Init implements pipeline.Processor.
func (a *Analyzer) Init(*pipeline.Context) error { return nil }

// Process implements pipeline.Processor.
func (a *Analyzer) Process(ctx *pipeline.Context, pkt *pipeline.Packet, out *pipeline.Emitter) error {
	a.bytes += uint64(pkt.WireSize)
	ctx.ChargeCompute(time.Duration(pkt.WireSize) * a.CostPerByte)
	if a.FeatureThreshold > 0 {
		if chunk, ok := pkt.Value.(*MeshChunk); ok {
			peak := 0.0
			for _, v := range chunk.Values {
				if v > peak {
					peak = v
				}
			}
			if peak >= a.FeatureThreshold && out.Fanout() > 0 {
				a.detected++
				cmd := &SteeringCommand{Region: chunk.Region, Severity: peak - a.FeatureThreshold}
				if err := out.Emit(pipeline.NewPacket(cmd, 1, 16)); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// FeaturesDetected reports how many steering commands the analyzer issued.
// Read after the run.
func (a *Analyzer) FeaturesDetected() uint64 { return a.detected }

// Finish implements pipeline.Processor.
func (a *Analyzer) Finish(*pipeline.Context, *pipeline.Emitter) error { return nil }

// BytesAnalyzed reports the volume the analyzer consumed. Read it only
// after the run completes.
func (a *Analyzer) BytesAnalyzed() uint64 { return a.bytes }

// MeshChunk is the payload of a simulation packet when the source is
// configured with regions: intermediate values at the mesh points of one
// region of the simulation grid.
type MeshChunk struct {
	// Region is the grid region the values belong to.
	Region int
	// Values are the intermediate simulation values.
	Values []float64
}

// SteeringCommand is the analysis stage's feedback to the simulation — the
// §2 steering loop: "if we detect certain features at a part of a grid, we
// may want to increase the resolution for that part of the grid".
type SteeringCommand struct {
	// Region is the grid region to refine.
	Region int
	// Severity is the detected feature's magnitude above the threshold.
	Severity float64
}

// Steering is the terminal stage of a steering pipeline: it accumulates
// refinement commands per region, standing in for the simulation's control
// interface. It is safe to query concurrently.
type Steering struct {
	mu          sync.Mutex
	refinements map[int]int
	commands    uint64
}

// NewSteering returns an empty steering sink.
func NewSteering() *Steering {
	return &Steering{refinements: make(map[int]int)}
}

// Init implements pipeline.Processor.
func (s *Steering) Init(*pipeline.Context) error { return nil }

// Process implements pipeline.Processor.
func (s *Steering) Process(_ *pipeline.Context, pkt *pipeline.Packet, _ *pipeline.Emitter) error {
	cmd, ok := pkt.Value.(*SteeringCommand)
	if !ok {
		return fmt.Errorf("compsteer: steering got %T, want *SteeringCommand", pkt.Value)
	}
	s.mu.Lock()
	s.refinements[cmd.Region]++
	s.commands++
	s.mu.Unlock()
	return nil
}

// Finish implements pipeline.Processor.
func (s *Steering) Finish(*pipeline.Context, *pipeline.Emitter) error { return nil }

// Commands returns the total number of refinement commands received.
func (s *Steering) Commands() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.commands
}

// Refinements returns how many commands targeted the given region.
func (s *Steering) Refinements(region int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.refinements[region]
}

// MostRefined returns the region with the most refinement commands
// (-1 when none arrived).
func (s *Steering) MostRefined() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	best, bestN := -1, 0
	for r, n := range s.refinements {
		if n > bestN || (n == bestN && best != -1 && r < best) {
			best, bestN = r, n
		}
	}
	return best
}
