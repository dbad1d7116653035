package queue

import (
	"context"
	"errors"
	"slices"
	"testing"
)

// fifoModel is the reference the rings are checked against: a slice, a
// capacity, a closed flag and the counters Stats reports. An operation that
// would have to wait reports errWouldBlock.
type fifoModel struct {
	cap            int
	items          []int
	closed         bool
	pushed, popped uint64
	high           int
}

var errWouldBlock = errors.New("model: would block")

// push accepts the leading items that fit and reports how many.
func (m *fifoModel) push(vs []int) (int, error) {
	switch {
	case len(vs) == 0:
		return 0, nil
	case len(m.items) == m.cap:
		return 0, errWouldBlock
	case m.closed:
		return 0, ErrClosed
	}
	n := min(len(vs), m.cap-len(m.items))
	m.items = append(m.items, vs[:n]...)
	m.pushed += uint64(n)
	m.high = max(m.high, len(m.items))
	if n < len(vs) {
		return n, errWouldBlock
	}
	return n, nil
}

// pop removes up to max of the oldest items.
func (m *fifoModel) pop(max int) ([]int, error) {
	if len(m.items) == 0 {
		if m.closed {
			return nil, ErrClosed
		}
		return nil, ErrEmpty
	}
	n := min(max, len(m.items))
	out := m.items[:n:n]
	m.items = m.items[n:]
	m.popped += uint64(n)
	return out, nil
}

// fullCtx is canceled exactly while its ring is full. It lets a single
// goroutine drive the blocking pushes: instead of parking on a full ring
// they return context.Canceled, which is the model's errWouldBlock.
type fullCtx struct {
	context.Context
	r *Ring[int]
}

func (c fullCtx) Done() <-chan struct{} { return nil }

func (c fullCtx) Err() error {
	if c.r.Len() >= c.r.Cap() {
		return context.Canceled
	}
	return nil
}

// FuzzRingModel decodes data into a single-goroutine op sequence and runs it
// against an SPSC ring, an MPSC ring and fifoModel. data[0] picks the
// capacity; each following byte pair is (op, arg): push one, push a batch of
// arg, try-pop, pop a batch of at most arg, close, try-push. After every op
// both rings must agree with the model on what the op returned, on Len, on
// Stats().Pushed/Popped/HighWater, and Snapshot() must equal the model's
// contents. The committed corpus covers wrap-around past the power-of-two
// physical size at the default capacity 200, close with items queued, a
// batch larger than the free space, and TryPush against a full ring, across
// the wrap and after Close.
func FuzzRingModel(f *testing.F) {
	f.Add([]byte{3, 1, 5, 2, 0, 0, 0, 4, 0, 3, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		caps := []int{1, 2, 3, 7, 8, 64, 200}
		capacity := caps[int(data[0])%len(caps)]
		m := &fifoModel{cap: capacity}
		rings := []*Ring[int]{NewSPSC[int](capacity), NewMPSC[int](capacity)}
		next := 0
		dst := make([]int, 256)
		for pc := 1; pc+1 < len(data); pc += 2 {
			op, arg := data[pc]%6, int(data[pc+1])
			switch op {
			case 0, 1: // push one / push a batch of arg
				n := 1
				if op == 1 {
					n = arg
				}
				vs := make([]int, n)
				for i := range vs {
					vs[i] = next + i
				}
				next += n
				wantN, wantErr := m.push(vs)
				if errors.Is(wantErr, errWouldBlock) {
					wantErr = context.Canceled
				}
				for _, r := range rings {
					var gotN int
					var err error
					if op == 0 {
						if err = r.PushCtx(fullCtx{context.Background(), r}, vs[0]); err == nil {
							gotN = 1
						}
					} else {
						gotN, err = r.PushBatchN(fullCtx{context.Background(), r}, vs)
					}
					if gotN != wantN || !errors.Is(err, wantErr) {
						t.Fatalf("op %d: push of %d (spsc=%v) = (%d, %v), model (%d, %v)",
							pc/2, n, r.SPSC(), gotN, err, wantN, wantErr)
					}
				}
			case 2: // try-pop
				want, wantErr := m.pop(1)
				for _, r := range rings {
					v, err := r.TryPop()
					if !errors.Is(err, wantErr) || (err == nil && v != want[0]) {
						t.Fatalf("op %d: TryPop (spsc=%v) = (%d, %v), model (%v, %v)",
							pc/2, r.SPSC(), v, err, want, wantErr)
					}
				}
			case 3: // pop a batch of at most arg (0 means len(dst))
				if len(m.items) == 0 && !m.closed {
					continue // PopBatch would block
				}
				limit := arg
				if limit == 0 {
					limit = len(dst)
				}
				want, wantErr := m.pop(limit)
				for _, r := range rings {
					n, err := r.PopBatch(dst, arg)
					if !errors.Is(err, wantErr) || !slices.Equal(dst[:n], want) {
						t.Fatalf("op %d: PopBatch(max=%d) (spsc=%v) = (%v, %v), model (%v, %v)",
							pc/2, arg, r.SPSC(), dst[:n], err, want, wantErr)
					}
				}
			case 4:
				m.closed = true
				for _, r := range rings {
					r.Close()
				}
			case 5: // try-push: true exactly where a push of one would not wait or fail
				v := next
				next++
				wantN, _ := m.push([]int{v})
				for _, r := range rings {
					if got := r.TryPush(v); got != (wantN == 1) {
						t.Fatalf("op %d: TryPush (spsc=%v) = %v, model accepted %d",
							pc/2, r.SPSC(), got, wantN)
					}
				}
			}
			for _, r := range rings {
				st := r.Stats()
				if r.Len() != len(m.items) || r.Len() > r.Cap() ||
					st.Pushed != m.pushed || st.Popped != m.popped || st.HighWater != m.high {
					t.Fatalf("op %d (spsc=%v): Len %d Cap %d stats %+v, model len %d pushed %d popped %d high %d",
						pc/2, r.SPSC(), r.Len(), r.Cap(), st, len(m.items), m.pushed, m.popped, m.high)
				}
				if snap := r.Snapshot(); !slices.Equal(snap, m.items) {
					t.Fatalf("op %d (spsc=%v): Snapshot %v, model %v", pc/2, r.SPSC(), snap, m.items)
				}
			}
		}
	})
}
