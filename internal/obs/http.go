package obs

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
)

// HandlerOptions extends the observability surface with deployment-aware
// endpoints. The zero value is valid and serves the plain per-node
// surface.
type HandlerOptions struct {
	// Ready reports whether the node is ready to serve (for gates-node
	// and gates-launcher: all local stage instances in the Running
	// state). Nil means /readyz always answers ready — a node with no
	// engine has nothing to wait for.
	Ready func() bool
	// Aggregator, when set, serves the merged pipeline-wide view at
	// /cluster (the launcher's role); /cluster answers 404 without it.
	Aggregator *Aggregator
	// Policy, when set, is mounted at /policy: GET returns the active
	// policy document and its version, POST hot-reloads a new one
	// (validation failures leave the active document in place). The
	// handler comes from the policy engine so obs stays policy-agnostic;
	// /policy answers 404 without it.
	Policy http.Handler
}

// Handler returns the observability HTTP surface of a node:
//
//	/metrics      Prometheus text exposition of the registry
//	/snapshot     JSON node snapshot: metrics + adaptation, migration,
//	              and lifecycle trails (everything a cluster aggregator
//	              needs in one scrape)
//	/adaptations  JSON audit trail of adaptation decisions
//	/migrations   JSON migration events and stage lifecycle transitions
//	/traces       JSON of the retained sampled spans
//	/healthz      liveness (200 once the process serves HTTP)
//	/readyz       readiness (503 until every local stage is Running)
//	/cluster      merged cluster view (launcher only; see HandlerOptions)
//	/debug/pprof  Go runtime profiling
//	/             plain-text index of the above
//
// Endpoints degrade gracefully when a facility is absent from o (e.g. a
// disabled tracer serves an empty span list).
func Handler(o *Observability) http.Handler {
	return HandlerWith(o, HandlerOptions{})
}

// HandlerWith is Handler with deployment-aware endpoints enabled.
func HandlerWith(o *Observability, opt HandlerOptions) http.Handler {
	if o == nil {
		panic("obs: Handler requires an Observability bundle")
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if o.Registry != nil {
			o.Registry.WritePrometheus(w)
		}
	})
	mux.HandleFunc("/snapshot", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, o.NodeSnapshot())
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if opt.Ready != nil && !opt.Ready() {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, "not ready: stages not all running")
			return
		}
		fmt.Fprintln(w, "ready")
	})
	mux.HandleFunc("/cluster", func(w http.ResponseWriter, r *http.Request) {
		if opt.Aggregator == nil {
			http.NotFound(w, r)
			return
		}
		writeJSON(w, opt.Aggregator.Collect())
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/adaptations", func(w http.ResponseWriter, r *http.Request) {
		events := o.Audit.Events()
		if events == nil {
			events = []AdaptationEvent{}
		}
		writeJSON(w, struct {
			Total  uint64            `json:"total"`
			Events []AdaptationEvent `json:"events"`
		}{Total: o.Audit.Total(), Events: events})
	})
	mux.HandleFunc("/migrations", func(w http.ResponseWriter, r *http.Request) {
		events := o.Migrations.Events()
		if events == nil {
			events = []MigrationEvent{}
		}
		lifecycle := o.Lifecycle.Events()
		if lifecycle == nil {
			lifecycle = []LifecycleEvent{}
		}
		writeJSON(w, struct {
			Total     uint64           `json:"total"`
			Events    []MigrationEvent `json:"events"`
			Lifecycle []LifecycleEvent `json:"lifecycle"`
		}{Total: o.Migrations.Total(), Events: events, Lifecycle: lifecycle})
	})
	mux.HandleFunc("/flightrecorder", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if err := o.FlightRec().WriteJSON(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/bottlenecks", func(w http.ResponseWriter, r *http.Request) {
		// Each request is one attribution epoch over the local registry:
		// stall-counter deltas since the previous request (or process
		// start), so two curls bracket exactly the window between them.
		writeJSON(w, o.Attr().ObserveRegistry(o.Reg()))
	})
	mux.HandleFunc("/decisions", func(w http.ResponseWriter, r *http.Request) {
		events := o.Decisions.Events()
		if events == nil {
			events = []DecisionEvent{}
		}
		writeJSON(w, struct {
			Total  uint64          `json:"total"`
			Events []DecisionEvent `json:"events"`
		}{Total: o.Decisions.Total(), Events: events})
	})
	if opt.Policy != nil {
		mux.Handle("/policy", opt.Policy)
	}
	mux.HandleFunc("/traces", func(w http.ResponseWriter, r *http.Request) {
		spans := o.Tracer.Spans()
		if spans == nil {
			spans = []SpanRecord{}
		}
		started, sampled := o.Tracer.Counts()
		writeJSON(w, struct {
			Started uint64       `json:"started"`
			Sampled uint64       `json:"sampled"`
			Spans   []SpanRecord `json:"spans"`
		}{Started: started, Sampled: sampled, Spans: spans})
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "GATES observability endpoints:")
		fmt.Fprintln(w, "  /metrics      Prometheus text format")
		fmt.Fprintln(w, "  /snapshot     JSON node snapshot (metrics + event trails)")
		fmt.Fprintln(w, "  /adaptations  adaptation audit trail")
		fmt.Fprintln(w, "  /migrations   stage migrations and lifecycle transitions")
		fmt.Fprintln(w, "  /traces       sampled hot-path spans")
		fmt.Fprintln(w, "  /flightrecorder  bounded ring of lifecycle/SLO/stall events")
		fmt.Fprintln(w, "  /bottlenecks  backpressure attribution verdict")
		fmt.Fprintln(w, "  /decisions    control-plane decision log (placements, rebalances, SLO verdicts)")
		if opt.Policy != nil {
			fmt.Fprintln(w, "  /policy       active policy document (GET) / hot reload (POST)")
		}
		fmt.Fprintln(w, "  /healthz      liveness probe")
		fmt.Fprintln(w, "  /readyz       readiness probe (all stages running)")
		if opt.Aggregator != nil {
			fmt.Fprintln(w, "  /cluster      merged pipeline-wide view")
		}
		fmt.Fprintln(w, "  /debug/pprof  runtime profiles")
	})
	return mux
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// Server is a running observability HTTP endpoint.
type Server struct {
	ln   net.Listener
	srv  *http.Server
	done chan struct{}
}

// Serve exposes o's Handler at addr (":0" picks a free port) and returns
// once the listener is bound, so the endpoint is queryable immediately.
func Serve(addr string, o *Observability) (*Server, error) {
	return ServeWith(addr, o, HandlerOptions{})
}

// ServeWith is Serve with deployment-aware endpoints enabled.
func ServeWith(addr string, o *Observability, opt HandlerOptions) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	s := &Server{
		ln:   ln,
		srv:  &http.Server{Handler: HandlerWith(o, opt)},
		done: make(chan struct{}),
	}
	go func() {
		defer close(s.done)
		if err := s.srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			o.Log().Error("obs http server failed", "addr", ln.Addr().String(), "err", err)
		}
	}()
	return s, nil
}

// Addr returns the bound address ("127.0.0.1:port").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the server and waits for the serve loop to end.
func (s *Server) Close() error {
	err := s.srv.Close()
	<-s.done
	return err
}
