package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"github.com/gates-middleware/gates/internal/clock"
)

// DefaultJournalCapacity is the default retained-event ring size.
const DefaultJournalCapacity = 4096

// EventKind classifies a journal event.
type EventKind string

// The event kinds the middleware records. The journal keeps rare,
// state-changing control-plane moments (what the middleware decided and
// what happened around an incident), never per-packet telemetry — that is
// the registry's job. The payload each kind carries is named alongside.
const (
	// EventLifecycle is a stage lifecycle transition (Lifecycle).
	EventLifecycle EventKind = "lifecycle"
	// EventAdaptation is one adaptation epoch (Adaptation).
	EventAdaptation EventKind = "adaptation"
	// EventMigration is a completed live re-deployment of an instance
	// (Migration).
	EventMigration EventKind = "migration"
	// EventPlacement is one Plan-time stage-instance placement (Decision).
	EventPlacement EventKind = "placement"
	// EventRebalance is one Rebalancer verdict: a move, or a reasoned skip
	// (Decision).
	EventRebalance EventKind = "rebalance"
	// EventSLO is one SLO-detector evaluation (SLO).
	EventSLO EventKind = "slo"
	// EventRecovery is a completed recovery of an instance off a dead node
	// (Recovery).
	EventRecovery EventKind = "recovery"
	// EventPolicy is a policy-document load or rejected reload (Decision).
	EventPolicy EventKind = "policy"
	// EventFault is a fault-plane injection: a node kill or heal, a network
	// partition, or a loss/reorder injection on a link.
	EventFault EventKind = "fault"
	// EventCheckpoint is one completed checkpoint round.
	EventCheckpoint EventKind = "checkpoint"
	// EventPoolExhausted is the onset of packet-pool exhaustion: a refill
	// found the pool empty and the allocator took over.
	EventPoolExhausted EventKind = "pool-exhausted"
	// EventStallOnset is the onset of an emit stall: an emission found a
	// downstream input buffer full after a period of free flow.
	EventStallOnset EventKind = "stall-onset"
	// EventDump marks a disk snapshot of the journal itself (SLO violation
	// or SIGQUIT), so a later dump shows when earlier ones ran.
	EventDump EventKind = "dump"
)

// Event is one journal entry: an envelope every kind shares plus the kind's
// typed payload. An event without a payload is a plain value — recording it
// is a struct copy into a preallocated ring slot, no allocation.
type Event struct {
	// Seq numbers events in record order across the journal's lifetime.
	Seq uint64 `json:"seq"`
	// At is the virtual time of the event (stamped at Record when the
	// caller left it zero).
	At time.Time `json:"at"`
	// Kind classifies the event.
	Kind EventKind `json:"kind"`
	// Stage, Instance, Node identify the instance involved, when any.
	Stage    string `json:"stage,omitempty"`
	Instance int    `json:"instance,omitempty"`
	Node     string `json:"node,omitempty"`
	// PolicyVersion names the policy document version a control-plane
	// verdict was judged by.
	PolicyVersion string `json:"policy_version,omitempty"`
	// Detail is a short human-readable description ("running → draining",
	// "emit blocked: input buffer of sink full", ...).
	Detail string `json:"detail,omitempty"`
	// Payload is the kind's typed record (Adaptation, Migration, Lifecycle,
	// Decision, SLO, Recovery), nil for kinds that carry none. Decoded from
	// JSON it is a generic map.
	Payload any `json:"payload,omitempty"`
}

// ParamDelta is one parameter's move within an adaptation epoch.
type ParamDelta struct {
	Param string  `json:"param"`
	Old   float64 `json:"old"`
	New   float64 `json:"new"`
}

// Adaptation is one Controller.Adjust epoch: the inputs it read (queue
// length d, long-term factor d̃, measured λ/μ, the downstream exception
// counts T1/T2 consumed by this epoch) and the resulting canonical ΔP with
// every parameter's move. It does not carry the law's terms: not φ1(T1,T2)
// after congestion priority (which may zero it or the queue term), not the
// queue-trend term, not σ1/σ2. So it shows what pressure was present, but
// not which term produced a given step (ROADMAP.md item 14, "ΔP explains
// itself").
type Adaptation struct {
	// QueueLen is the input-queue occupancy d at adjustment time.
	QueueLen int `json:"queue_len"`
	// DTilde is the long-term average queue size factor d̃.
	DTilde float64 `json:"d_tilde"`
	// Lambda and Mu are the arrival and service rates (items per virtual
	// second) measured since the previous adjustment epoch; zero on the
	// first.
	Lambda float64 `json:"lambda"`
	Mu     float64 `json:"mu"`
	// T1 and T2 are the downstream overload/underload exception counts
	// consumed (and reset) by this epoch.
	T1 float64 `json:"t1"`
	T2 float64 `json:"t2"`
	// DeltaP is the canonical ΔP applied (before Step/Direction scaling).
	DeltaP float64 `json:"delta_p"`
	// Params are the individual parameter moves (empty when the stage
	// registered no adjustment parameters).
	Params []ParamDelta `json:"params,omitempty"`
}

// Migration is one live re-deployment of a stage instance: where it moved,
// how long the drain took, and how much state traveled with it.
type Migration struct {
	// From and To are the source and destination grid nodes.
	From string `json:"from"`
	To   string `json:"to"`
	// Drain is the virtual time from the pause request until the
	// instance was parked with no packet in flight.
	Drain time.Duration `json:"drain_ns"`
	// StateBytes is the size of the serialized processor state moved.
	StateBytes int `json:"state_bytes"`
	// QueuedPackets and QueuedBytes describe the input-queue backlog
	// that moved (logically) with the instance.
	QueuedPackets int `json:"queued_packets"`
	QueuedBytes   int `json:"queued_bytes"`
	// Reason distinguishes operator-initiated moves ("manual") from
	// rebalancer decisions ("rebalance").
	Reason string `json:"reason,omitempty"`
}

// Lifecycle is one stage lifecycle transition (see pipeline.StageState):
// running → draining → paused → running is the signature of a live
// migration.
type Lifecycle struct {
	From string `json:"from"`
	To   string `json:"to"`
}

// Decision is one OPA-style control-plane verdict: the rule that fired,
// the outcome, and the full input context the rule saw — enough to replay
// or dispute the decision later. The envelope's PolicyVersion names the
// document that produced it.
type Decision struct {
	// Rule names the rule that fired ("threshold", "cooldown",
	// "near-source", a named placement rule, ...).
	Rule string `json:"rule,omitempty"`
	// Outcome is the verdict ("placed", "move", "skip", "loaded", ...).
	Outcome string `json:"outcome"`
	// Input is the full evaluation context the rule consumed (costs,
	// thresholds, requirements, measured signals).
	Input map[string]any `json:"input,omitempty"`
}

// SLO is one SLO-detector evaluation: the verdict, the evidence, and the
// objectives it was judged against.
type SLO struct {
	// Rule names the signal that decided ("within-objectives",
	// "sink-p99", "queue-growth", or both joined by "+").
	Rule string `json:"rule"`
	// Violated is the flag after this evaluation.
	Violated bool `json:"violated"`
	// Transition marks an evaluation that flipped the flag (the first
	// evaluation counts as one).
	Transition bool `json:"transition,omitempty"`
	// Reasons are the active violation causes, empty when healthy.
	Reasons []string `json:"reasons,omitempty"`
	// SinkP99 and MaxDTilde are the measured signals.
	SinkP99   JSONFloat `json:"sink_p99"`
	MaxDTilde JSONFloat `json:"max_d_tilde"`
	// TargetP99 and GrowthEpochs are the objectives in force.
	TargetP99    JSONFloat `json:"target_p99"`
	GrowthEpochs int       `json:"growth_epochs"`
	// Growing lists the stages past the growth threshold.
	Growing []string `json:"growing,omitempty"`
}

// Recovery is one completed recovery of a stage instance off a dead node.
type Recovery struct {
	// From is the dead node; To is the node the instance landed on.
	From string `json:"from"`
	To   string `json:"to"`
	// Restored reports whether checkpoint state was restored.
	Restored bool `json:"restored"`
	// Replayed counts packets re-injected from upstream replay rings;
	// Discarded counts stale queued packets dropped.
	Replayed  int `json:"replayed"`
	Discarded int `json:"discarded"`
	// Gap reports a replay interval that outran a ring's retention.
	Gap bool `json:"gap,omitempty"`
	// Duration is the virtual time the recovery took.
	Duration time.Duration `json:"duration_ns"`
}

// EventFilter narrows Journal.Events. The zero filter matches every event;
// each set field narrows it further.
type EventFilter struct {
	// Kind keeps events of this kind.
	Kind EventKind
	// Stage keeps events about this stage.
	Stage string
	// Instance, when non-nil, keeps events about this instance number.
	Instance *int
	// Since keeps events with Seq >= Since.
	Since uint64
}

func (f EventFilter) match(ev *Event) bool {
	return (f.Kind == "" || ev.Kind == f.Kind) &&
		(f.Stage == "" || ev.Stage == f.Stage) &&
		(f.Instance == nil || ev.Instance == *f.Instance) &&
		ev.Seq >= f.Since
}

// Journal is the one bounded, typed timeline of every control-plane event
// behind /events: always on, allocation-free on the record path for
// payload-less events, safe for concurrent use. A nil *Journal is valid and
// records nothing, so unobserved code paths need no checks.
//
// One ring means a chatty kind can evict a rare one; DESIGN.md §7 gives
// the default's retention.
type Journal struct {
	clk clock.Clock

	mu       sync.Mutex
	buf      []Event
	next     int
	count    int
	total    uint64
	dumpPath string
	dumps    uint64
	lastErr  string
}

// NewJournal returns a journal retaining up to capacity events (<=0 selects
// DefaultJournalCapacity), timestamping on clk.
func NewJournal(clk clock.Clock, capacity int) *Journal {
	if capacity <= 0 {
		capacity = DefaultJournalCapacity
	}
	return &Journal{clk: clk, buf: make([]Event, capacity)}
}

// Record appends ev, stamping Seq and — when the caller left it zero — At
// with the current virtual time. A no-op on a nil journal.
func (j *Journal) Record(ev Event) {
	if j == nil {
		return
	}
	if ev.At.IsZero() {
		ev.At = j.clk.Now()
	}
	j.mu.Lock()
	ev.Seq = j.total
	j.total++
	j.buf[j.next] = ev
	j.next = (j.next + 1) % len(j.buf)
	if j.count < len(j.buf) {
		j.count++
	}
	j.mu.Unlock()
}

// Total returns how many events were ever recorded (retained or evicted).
func (j *Journal) Total() uint64 {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.total
}

// Events returns the retained events f matches, oldest first.
func (j *Journal) Events(f EventFilter) []Event {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	var out []Event
	start := j.next - j.count
	for i := 0; i < j.count; i++ {
		ev := &j.buf[(start+i+len(j.buf))%len(j.buf)]
		if f.match(ev) {
			out = append(out, *ev)
		}
	}
	return out
}

// SetDumpPath sets the file DumpToDisk writes. Empty (the default)
// disables disk snapshots.
func (j *Journal) SetDumpPath(path string) {
	if j == nil {
		return
	}
	j.mu.Lock()
	j.dumpPath = path
	j.mu.Unlock()
}

// journalDump is the JSON envelope /events and disk snapshots share.
type journalDump struct {
	Total    uint64  `json:"total"`
	Capacity int     `json:"capacity"`
	Dumps    uint64  `json:"dumps"`
	DumpErr  string  `json:"dumpErr,omitempty"`
	Events   []Event `json:"events"`
}

// WriteJSON writes the journal's envelope, carrying the events f matches,
// as indented JSON: what /events serves and, with the zero filter, what
// DumpToDisk snapshots.
func (j *Journal) WriteJSON(w io.Writer, f EventFilter) error {
	if j == nil {
		_, err := io.WriteString(w, "{}\n")
		return err
	}
	j.mu.Lock()
	d := journalDump{Total: j.total, Capacity: len(j.buf), Dumps: j.dumps, DumpErr: j.lastErr}
	j.mu.Unlock()
	if d.Events = j.Events(f); d.Events == nil {
		d.Events = []Event{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(d)
}

// DumpToDisk snapshots the journal to the configured dump path, first
// recording an EventDump naming the reason ("slo-violation", "sigquit"). It
// returns the path written, or "" when no path is configured. Errors are
// remembered (exposed in the JSON envelope) as well as returned: the callers
// are signal handlers and the SLO detector, which have nowhere good to put
// them.
func (j *Journal) DumpToDisk(reason string) (string, error) {
	if j == nil {
		return "", nil
	}
	j.mu.Lock()
	path := j.dumpPath
	j.mu.Unlock()
	if path == "" {
		return "", nil
	}
	j.Record(Event{Kind: EventDump, Detail: reason})
	// Write-then-rename in the target directory (same filesystem) so a
	// crash mid-dump never leaves a truncated snapshot at the path.
	tmp, err := os.CreateTemp(filepath.Dir(path), ".gates-journal-*")
	if err == nil {
		err = j.WriteJSON(tmp, EventFilter{})
		if cerr := tmp.Close(); err == nil {
			err = cerr
		}
		if err == nil {
			err = os.Rename(tmp.Name(), path)
		}
		if err != nil {
			os.Remove(tmp.Name())
		}
	}
	j.mu.Lock()
	if err != nil {
		j.lastErr = err.Error()
	} else {
		j.dumps++
		j.lastErr = ""
	}
	j.mu.Unlock()
	if err != nil {
		return "", fmt.Errorf("obs: journal dump %s: %w", path, err)
	}
	return path, nil
}
