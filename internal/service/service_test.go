package service

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/gates-middleware/gates/internal/clock"
	"github.com/gates-middleware/gates/internal/grid"
	"github.com/gates-middleware/gates/internal/netsim"
	"github.com/gates-middleware/gates/internal/pipeline"
	"github.com/gates-middleware/gates/internal/policy"
)

const testConfigXML = `
<application name="count-test">
  <stage id="producer" code="test/ints" source="true" instances="4">
    <nearSource>stream-1</nearSource>
    <nearSource>stream-2</nearSource>
    <nearSource>stream-3</nearSource>
    <nearSource>stream-4</nearSource>
  </stage>
  <stage id="merge" code="test/count" queueCapacity="64">
    <requirement minCPU="2"/>
  </stage>
  <connection from="producer" to="merge"/>
</application>`

// intsSource emits instance*100+i for i in 0..24.
type intsSource struct{ instance int }

func (s *intsSource) Run(ctx *pipeline.Context, out *pipeline.Emitter) error {
	for i := 0; i < 25; i++ {
		if err := out.EmitValue(s.instance*100+i, 8); err != nil {
			return err
		}
	}
	return nil
}

// countProc counts received packets.
type countProc struct {
	mu sync.Mutex
	n  int
}

func (c *countProc) Init(*pipeline.Context) error { return nil }
func (c *countProc) Process(_ *pipeline.Context, _ *pipeline.Packet, _ *pipeline.Emitter) error {
	c.mu.Lock()
	c.n++
	c.mu.Unlock()
	return nil
}
func (c *countProc) Finish(*pipeline.Context, *pipeline.Emitter) error { return nil }

func (c *countProc) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

// testFabric builds the 4-source + central grid used across tests.
func testFabric(t *testing.T) (clock.Clock, *grid.Directory, *Repository, *netsim.Network, *countProc) {
	t.Helper()
	clk := clock.NewScaled(1000)
	dir := grid.NewDirectory()
	for i := 1; i <= 4; i++ {
		if err := dir.Register(grid.Node{
			Name: fmt.Sprintf("src-%d", i), CPUPower: 1, MemoryMB: 512,
			Sources: []string{fmt.Sprintf("stream-%d", i)},
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := dir.Register(grid.Node{Name: "central", CPUPower: 4, MemoryMB: 4096, Slots: 4}); err != nil {
		t.Fatal(err)
	}
	net := netsim.NewNetwork(clk)
	net.SetDefaultLink(netsim.LinkConfig{Bandwidth: netsim.BW100K})

	repo := NewRepository()
	counter := &countProc{}
	if err := repo.RegisterSource("test/ints", func(inst int) pipeline.Source {
		return &intsSource{instance: inst}
	}); err != nil {
		t.Fatal(err)
	}
	if err := repo.RegisterProcessor("test/count", func(int) pipeline.Processor {
		return counter
	}); err != nil {
		t.Fatal(err)
	}
	return clk, dir, repo, net, counter
}

func TestParseConfig(t *testing.T) {
	cfg, err := ParseConfigString(testConfigXML)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Name != "count-test" || len(cfg.Stages) != 2 || len(cfg.Connections) != 1 {
		t.Fatalf("parsed %+v", cfg)
	}
	prod, ok := cfg.Stage("producer")
	if !ok || !prod.Source || prod.EffectiveInstances() != 4 || len(prod.NearSources) != 4 {
		t.Fatalf("producer stage %+v", prod)
	}
	merge, _ := cfg.Stage("merge")
	if merge.QueueCapacity != 64 || merge.Requirement.MinCPU != 2 {
		t.Fatalf("merge stage %+v", merge)
	}
	if _, ok := cfg.Stage("ghost"); ok {
		t.Fatal("ghost stage found")
	}
}

func TestConfigMarshalRoundTrip(t *testing.T) {
	cfg, err := ParseConfigString(testConfigXML)
	if err != nil {
		t.Fatal(err)
	}
	b, err := cfg.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	again, err := ParseConfigString(string(b))
	if err != nil {
		t.Fatal(err)
	}
	if again.Name != cfg.Name || len(again.Stages) != len(cfg.Stages) {
		t.Fatal("round trip lost structure")
	}
}

func TestConfigValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		xml  string
	}{
		{"no name", `<application><stage id="a" code="c" source="true"/></application>`},
		{"no stages", `<application name="x"></application>`},
		{"stage without id", `<application name="x"><stage code="c" source="true"/></application>`},
		{"stage without code", `<application name="x"><stage id="a" source="true"/></application>`},
		{"duplicate ids", `<application name="x"><stage id="a" code="c" source="true"/><stage id="a" code="c"/></application>`},
		{"no source", `<application name="x"><stage id="a" code="c"/></application>`},
		{"unknown from", `<application name="x"><stage id="a" code="c" source="true"/><connection from="z" to="a"/></application>`},
		{"unknown to", `<application name="x"><stage id="a" code="c" source="true"/><connection from="a" to="z"/></application>`},
		{"into source", `<application name="x"><stage id="a" code="c" source="true"/><stage id="b" code="c" source="true"/><connection from="a" to="b"/></application>`},
		{"bad fanout", `<application name="x"><stage id="a" code="c" source="true"/><stage id="b" code="c"/><connection from="a" to="b" fanout="ring"/></application>`},
		{"pairwise mismatch", `<application name="x"><stage id="a" code="c" source="true" instances="3"/><stage id="b" code="c"/><connection from="a" to="b" fanout="pairwise"/></application>`},
		{"hint count mismatch", `<application name="x"><stage id="a" code="c" source="true" instances="2"><nearSource>s1</nearSource></stage></application>`},
		// A queue of one leaves the adaptation law no expected length D in
		// [1, C); Deploy would fail on it.
		{"queue capacity 1", `<application name="x"><stage id="a" code="c" source="true" queueCapacity="1"/></application>`},
		{"negative queue capacity", `<application name="x"><stage id="a" code="c" source="true" queueCapacity="-64"/></application>`},
	}
	for _, tc := range cases {
		if _, err := ParseConfigString(tc.xml); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestRepository(t *testing.T) {
	r := NewRepository()
	if err := r.RegisterProcessor("", nil); err == nil {
		t.Fatal("empty registration accepted")
	}
	if err := r.RegisterProcessor("p", func(int) pipeline.Processor { return &countProc{} }); err != nil {
		t.Fatal(err)
	}
	if err := r.RegisterSource("p", func(int) pipeline.Source { return &intsSource{} }); err == nil {
		t.Fatal("cross-kind duplicate accepted")
	}
	if err := r.RegisterSource("s", func(int) pipeline.Source { return &intsSource{} }); err != nil {
		t.Fatal(err)
	}
	if _, ok := r.Processor("p"); !ok {
		t.Fatal("processor lookup failed")
	}
	if _, ok := r.Source("s"); !ok {
		t.Fatal("source lookup failed")
	}
	if _, ok := r.Processor("s"); ok {
		t.Fatal("source visible as processor")
	}
	codes := r.Codes()
	if len(codes) != 2 || codes[0] != "p" || codes[1] != "s" {
		t.Fatalf("Codes = %v", codes)
	}
}

func TestDeployPlacesAndWires(t *testing.T) {
	clk, dir, repo, net, counter := testFabric(t)
	dep, err := NewDeployer(clk, dir, repo, net)
	if err != nil {
		t.Fatal(err)
	}
	cfg, _ := ParseConfigString(testConfigXML)
	d, err := dep.Deploy(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Sources land on their streams' nodes; merge lands on central.
	for i := 0; i < 4; i++ {
		node, ok := d.NodeFor("producer", i)
		if !ok || node != fmt.Sprintf("src-%d", i+1) {
			t.Fatalf("producer %d placed on %q", i, node)
		}
	}
	if node, _ := d.NodeFor("merge", 0); node != "central" {
		t.Fatalf("merge placed on %q, want central", node)
	}
	if _, ok := d.Stage("merge", 0); !ok {
		t.Fatal("merge stage instance missing")
	}
	if _, ok := d.Stage("merge", 1); ok {
		t.Fatal("phantom merge instance")
	}
	if err := d.Engine.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if counter.count() != 100 {
		t.Fatalf("merge received %d packets, want 100", counter.count())
	}
	// Cross-node traffic went over emulated links.
	if net.TotalBytes() == 0 {
		t.Fatal("no bytes on the network despite cross-node edges")
	}
}

func TestDeployUnknownCode(t *testing.T) {
	clk, dir, _, net, _ := testFabric(t)
	dep, _ := NewDeployer(clk, dir, NewRepository(), net)
	cfg, _ := ParseConfigString(testConfigXML)
	if _, err := dep.Deploy(cfg, nil); err == nil || !strings.Contains(err.Error(), "not in repository") {
		t.Fatalf("Deploy with empty repository = %v", err)
	}
}

func TestDeployUnsatisfiableRequirement(t *testing.T) {
	clk, dir, repo, net, _ := testFabric(t)
	dep, _ := NewDeployer(clk, dir, repo, net)
	cfg, _ := ParseConfigString(strings.Replace(testConfigXML, `minCPU="2"`, `minCPU="99"`, 1))
	if _, err := dep.Deploy(cfg, nil); err == nil {
		t.Fatal("impossible requirement deployed")
	}
	// Failed deployment must not leak allocations.
	for i := 1; i <= 4; i++ {
		if dir.Allocated(fmt.Sprintf("src-%d", i)) != 0 {
			t.Fatal("failed deploy leaked a source-node allocation")
		}
	}
}

func TestDeployTuningApplied(t *testing.T) {
	clk, dir, repo, net, _ := testFabric(t)
	dep, _ := NewDeployer(clk, dir, repo, net)
	cfg, _ := ParseConfigString(testConfigXML)
	tuned := 0
	d, err := dep.Deploy(cfg, func(stageID string, instance int) pipeline.StageConfig {
		tuned++
		return pipeline.StageConfig{QueueCapacity: 7}
	})
	if err != nil {
		t.Fatal(err)
	}
	if tuned != 5 {
		t.Fatalf("tuning consulted %d times, want 5", tuned)
	}
	st, _ := d.Stage("merge", 0)
	if st.QueueStats(); st == nil {
		t.Fatal("stage missing")
	}
}

func TestLauncherEndToEnd(t *testing.T) {
	clk, dir, repo, net, counter := testFabric(t)
	dep, _ := NewDeployer(clk, dir, repo, net)
	l, err := NewLauncher(dep)
	if err != nil {
		t.Fatal(err)
	}
	app, err := l.Launch(context.Background(), testConfigXML, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := app.Wait(); err != nil {
		t.Fatal(err)
	}
	if counter.count() != 100 {
		t.Fatalf("received %d packets, want 100", counter.count())
	}
	select {
	case <-app.Done():
	default:
		t.Fatal("Done not closed after Wait")
	}
}

func TestLauncherFromFile(t *testing.T) {
	clk, dir, repo, net, _ := testFabric(t)
	dep, _ := NewDeployer(clk, dir, repo, net)
	l, _ := NewLauncher(dep)
	path := filepath.Join(t.TempDir(), "app.xml")
	if err := os.WriteFile(path, []byte(testConfigXML), 0o644); err != nil {
		t.Fatal(err)
	}
	app, err := l.Launch(context.Background(), path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := app.Wait(); err != nil {
		t.Fatal(err)
	}
}

func TestLauncherBadLocator(t *testing.T) {
	if _, err := Fetch("/does/not/exist.xml"); err == nil {
		t.Fatal("missing file fetched")
	}
	if _, err := Fetch("<application"); err == nil {
		t.Fatal("broken XML fetched")
	}
}

func TestApplicationStop(t *testing.T) {
	clk, dir, repo, net, _ := testFabric(t)
	// A slow source so the app is still running when we stop it.
	if err := repo.RegisterSource("test/slow", func(inst int) pipeline.Source {
		return &slowSource{}
	}); err != nil {
		t.Fatal(err)
	}
	dep, _ := NewDeployer(clk, dir, repo, net)
	l, _ := NewLauncher(dep)
	cfg := strings.Replace(testConfigXML, "test/ints", "test/slow", 1)
	app, err := l.Launch(context.Background(), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the app is demonstrably mid-flight — the merge stage has
	// consumed at least one packet — rather than sleeping an arbitrary
	// wall-clock interval.
	deadline := time.Now().Add(5 * time.Second)
	for {
		var in uint64
		for _, st := range app.Stages["merge"] {
			in += st.Stats().PacketsIn
		}
		if in > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("app never started flowing")
		}
		time.Sleep(time.Millisecond)
	}
	stopped := make(chan error, 1)
	go func() { stopped <- app.Stop() }()
	select {
	case <-stopped:
	case <-time.After(10 * time.Second):
		t.Fatal("Stop hung")
	}
}

// slowSource emits forever (until canceled), pacing on the virtual clock.
type slowSource struct{}

func (s *slowSource) Run(ctx *pipeline.Context, out *pipeline.Emitter) error {
	for i := 0; ; i++ {
		select {
		case <-ctx.Done():
			return nil
		default:
		}
		ctx.ChargeCompute(100 * time.Millisecond)
		if err := out.EmitValue(i, 8); err != nil {
			return err
		}
	}
}

func TestGroupedFanout(t *testing.T) {
	clk, dir, repo, net, _ := testFabric(t)
	// Two extra counters for the two regional consumers.
	counters := [2]*countProc{{}, {}}
	if err := repo.RegisterProcessor("test/regional", func(inst int) pipeline.Processor {
		return counters[inst]
	}); err != nil {
		t.Fatal(err)
	}
	dep, _ := NewDeployer(clk, dir, repo, net)
	cfg, err := ParseConfigString(`
<application name="grouped">
  <stage id="producer" code="test/ints" source="true" instances="4">
    <nearSource>stream-1</nearSource><nearSource>stream-2</nearSource>
    <nearSource>stream-3</nearSource><nearSource>stream-4</nearSource>
  </stage>
  <stage id="regional" code="test/regional" instances="2"/>
  <connection from="producer" to="regional" fanout="grouped"/>
</application>`)
	if err != nil {
		t.Fatal(err)
	}
	d, err := dep.Deploy(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Engine.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Producers 0-1 feed regional 0; producers 2-3 feed regional 1.
	if counters[0].count() != 50 || counters[1].count() != 50 {
		t.Fatalf("grouped split = %d/%d, want 50/50", counters[0].count(), counters[1].count())
	}
}

func TestGroupedFanoutValidation(t *testing.T) {
	_, err := ParseConfigString(`
<application name="bad">
  <stage id="a" code="c" source="true" instances="3"/>
  <stage id="b" code="c" instances="2"/>
  <connection from="a" to="b" fanout="grouped"/>
</application>`)
	if err == nil {
		t.Fatal("indivisible grouped fanout accepted")
	}
}

func TestTopologyAwareDeployment(t *testing.T) {
	// Two sites with a slow WAN: the unhinted aggregator stage must land
	// at the site hosting its producers rather than on the raw-score
	// winner across the WAN.
	clk := clock.NewScaled(1000)
	dir := grid.NewDirectory()
	dir.Register(grid.Node{Name: "remote-src-1", Site: "remote", CPUPower: 1, MemoryMB: 512, Sources: []string{"feed-1"}})
	dir.Register(grid.Node{Name: "remote-src-2", Site: "remote", CPUPower: 1, MemoryMB: 512, Sources: []string{"feed-2"}})
	dir.Register(grid.Node{Name: "remote-hub", Site: "remote", CPUPower: 2, MemoryMB: 2048, Slots: 2})
	// The home hub is "better" by raw score (more CPU, more slots).
	dir.Register(grid.Node{Name: "home-hub", Site: "home", CPUPower: 8, MemoryMB: 8192, Slots: 8})
	net := netsim.NewNetwork(clk)
	remotes := []string{"remote-src-1", "remote-src-2", "remote-hub"}
	for _, a := range remotes {
		for _, b := range remotes {
			if a != b {
				net.Connect(a, b, netsim.LinkConfig{Bandwidth: netsim.BW1M})
			}
		}
		net.Connect(a, "home-hub", netsim.LinkConfig{Bandwidth: netsim.BW1K})
		net.Connect("home-hub", a, netsim.LinkConfig{Bandwidth: netsim.BW1K})
	}

	repo := NewRepository()
	counter := &countProc{}
	repo.RegisterSource("t/ints", func(inst int) pipeline.Source { return &intsSource{instance: inst} })
	repo.RegisterProcessor("t/agg", func(int) pipeline.Processor { return counter })

	cfg, err := ParseConfigString(`
<application name="topo">
  <stage id="feed" code="t/ints" source="true" instances="2">
    <nearSource>feed-1</nearSource><nearSource>feed-2</nearSource>
  </stage>
  <stage id="agg" code="t/agg"/>
  <connection from="feed" to="agg"/>
</application>`)
	if err != nil {
		t.Fatal(err)
	}

	// Without topology awareness the aggregator chases the big home hub.
	dep1, _ := NewDeployer(clk, dir, repo, net)
	d1, err := dep1.Deploy(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if node, _ := d1.NodeFor("agg", 0); node != "home-hub" {
		t.Fatalf("baseline placement = %s, want home-hub (raw score winner)", node)
	}

	// With topology awareness the 1 KB/s WAN penalty pulls it to the
	// producers' site. Fresh directory state: release by re-planning on
	// a clean copy.
	dir2 := grid.NewDirectory()
	dir2.Register(grid.Node{Name: "remote-src-1", Site: "remote", CPUPower: 1, MemoryMB: 512, Sources: []string{"feed-1"}})
	dir2.Register(grid.Node{Name: "remote-src-2", Site: "remote", CPUPower: 1, MemoryMB: 512, Sources: []string{"feed-2"}})
	dir2.Register(grid.Node{Name: "remote-hub", Site: "remote", CPUPower: 2, MemoryMB: 2048, Slots: 2})
	dir2.Register(grid.Node{Name: "home-hub", Site: "home", CPUPower: 8, MemoryMB: 8192, Slots: 8})
	dep2, _ := NewDeployer(clk, dir2, repo, net)
	topo, err := policy.Parse([]byte(`{"placement": {"topology_aware": true}}`))
	if err != nil {
		t.Fatal(err)
	}
	pol := policy.New(clk, nil)
	if err := pol.Load(topo, "test"); err != nil {
		t.Fatal(err)
	}
	dep2.SetPolicy(pol)
	d2, err := dep2.Deploy(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if node, _ := d2.NodeFor("agg", 0); node != "remote-hub" {
		t.Fatalf("topology-aware placement = %s, want remote-hub", node)
	}
	if err := d2.Engine.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if counter.count() != 50 {
		t.Fatalf("aggregator saw %d packets, want 50", counter.count())
	}
}

func TestFetchOverHTTP(t *testing.T) {
	// The paper's workflow: the developer hosts the descriptor on a web
	// server and the user hands its URL to the Launcher.
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/app.xml" {
			fmt.Fprint(w, testConfigXML)
			return
		}
		http.NotFound(w, r)
	}))
	defer srv.Close()

	cfg, err := Fetch(srv.URL + "/app.xml")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Name != "count-test" {
		t.Fatalf("fetched config %q", cfg.Name)
	}
	if _, err := Fetch(srv.URL + "/missing.xml"); err == nil {
		t.Fatal("HTTP 404 fetched successfully")
	}
}

func TestLaunchFromURL(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, testConfigXML)
	}))
	defer srv.Close()
	clk, dir, repo, net, counter := testFabric(t)
	dep, _ := NewDeployer(clk, dir, repo, net)
	l, _ := NewLauncher(dep)
	app, err := l.Launch(context.Background(), srv.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := app.Wait(); err != nil {
		t.Fatal(err)
	}
	if counter.count() != 100 {
		t.Fatalf("received %d packets, want 100", counter.count())
	}
}
