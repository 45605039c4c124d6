// Package trace models execution traces of task parallel programs: a
// sequentially consistent sequence of task-management, memory, and lock
// events. It provides the paper's trace generator — parameterized random
// structured programs scheduled into valid interleavings — and an offline
// replayer that rebuilds the DPST from a trace and drives any checker,
// so detectors can be exercised deterministically and differentially
// without a live scheduler.
package trace

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"github.com/taskpar/avd/internal/sched"
)

// Kind enumerates trace event kinds.
type Kind uint8

// Trace event kinds.
const (
	// KSpawn records task Task spawning task Child.
	KSpawn Kind = iota
	// KFinishBegin opens a finish scope in task Task.
	KFinishBegin
	// KFinishEnd closes the innermost finish scope of task Task; it
	// appears only after all tasks spawned in the scope have ended.
	KFinishEnd
	// KAccess is a shared-memory access by task Task.
	KAccess
	// KAcquire is a lock acquisition by task Task.
	KAcquire
	// KRelease is a lock release by task Task.
	KRelease
	// KTaskEnd marks the completion of task Task.
	KTaskEnd
	// KInject records a chaos-plane fault injection against task Task
	// (Fault distinguishes steal/delay/panic). Purely an annotation for
	// observability overlays: replay ignores it.
	KInject
)

// String names the event kind.
func (k Kind) String() string {
	switch k {
	case KSpawn:
		return "spawn"
	case KFinishBegin:
		return "finish-begin"
	case KFinishEnd:
		return "finish-end"
	case KAccess:
		return "access"
	case KAcquire:
		return "acquire"
	case KRelease:
		return "release"
	case KTaskEnd:
		return "task-end"
	case KInject:
		return "inject"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Event is one trace record. Field use depends on Kind: Child for
// KSpawn; Loc and Write for KAccess; Lock and CS for KAcquire/KRelease;
// Fault for KInject. Ts and W annotate any event with wall-clock time
// and the recording worker; both are optional (zero when the trace was
// generated rather than recorded) and ignored by replay, so traces from
// older recordings decode unchanged.
type Event struct {
	Kind  Kind      `json:"k"`
	Task  int32     `json:"t"`
	Child int32     `json:"c,omitempty"`
	Loc   sched.Loc `json:"l,omitempty"`
	Write bool      `json:"w,omitempty"`
	Lock  uint32    `json:"m,omitempty"`
	CS    uint64    `json:"cs,omitempty"`
	// Ts is nanoseconds since the start of the recording (0 = unknown).
	Ts int64 `json:"ts,omitempty"`
	// W is the recording scheduler worker plus one, so that 0 still
	// means unknown under omitempty; use Worker to decode.
	W int32 `json:"wk,omitempty"`
	// Fault is the injected fault kind of a KInject event (the integer
	// value of chaos.Fault).
	Fault uint8 `json:"f,omitempty"`
}

// Worker returns the scheduler worker that emitted the event, or -1
// when unknown.
func (e Event) Worker() int { return int(e.W) - 1 }

// Trace is one observed schedule of a task parallel execution. Task 0 is
// the root task and is implicitly started; every other task appears in a
// KSpawn event before its own events.
type Trace struct {
	Tasks  int32   `json:"tasks"`
	Events []Event `json:"events"`
}

// Encode writes the trace as JSON to w.
func (tr *Trace) Encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	return enc.Encode(tr)
}

// ErrTooLarge reports an encoded trace rejected by a size limit before
// any allocation proportional to its claimed contents.
var ErrTooLarge = errors.New("trace: encoded trace exceeds size limit")

// ErrTruncated reports an encoded trace that ends mid-stream (a partial
// upload or a cut-off file).
var ErrTruncated = errors.New("trace: truncated input")

// ErrBadLocation reports an access to a location outside the range
// [1, LockLocBase): location 0 is the checkers' empty-slot marker (and
// what an access whose JSON omits "l" decodes to), and locations from
// LockLocBase up alias the lock locations of Velodrome replay.
var ErrBadLocation = errors.New("trace: access to an invalid location")

// Decode reads a JSON trace from r.
func Decode(r io.Reader) (*Trace, error) {
	return DecodeLimited(r, 0)
}

// DecodeLimited reads a JSON trace from r, refusing inputs whose
// encoding exceeds maxBytes (0 = unlimited) with ErrTooLarge before the
// decoder allocates storage proportional to the excess, and mapping
// mid-stream EOF to ErrTruncated. It is the only decode path meant for
// untrusted input: the byte cap bounds the event slice (each encoded
// event costs >= several bytes), and Validate's task-count bound runs
// before any allocation sized by the header.
func DecodeLimited(r io.Reader, maxBytes int64) (*Trace, error) {
	var lr *io.LimitedReader
	if maxBytes > 0 {
		// One sentinel byte past the cap distinguishes "exactly at the
		// limit" from "over it" without reading the whole excess.
		lr = &io.LimitedReader{R: r, N: maxBytes + 1}
		r = lr
	}
	var tr Trace
	dec := json.NewDecoder(r)
	if err := dec.Decode(&tr); err != nil {
		if lr != nil && lr.N <= 0 {
			return nil, fmt.Errorf("trace: decode: %w (limit %d bytes)", ErrTooLarge, maxBytes)
		}
		if errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, io.EOF) {
			return nil, fmt.Errorf("trace: decode: %w: %v", ErrTruncated, err)
		}
		return nil, fmt.Errorf("trace: decode: %w", err)
	}
	if lr != nil {
		// The decoder reads ahead, so subtract what it buffered past the
		// decoded value before judging the value's own size.
		buffered, _ := io.Copy(io.Discard, dec.Buffered())
		if maxBytes+1-lr.N-buffered > maxBytes {
			return nil, fmt.Errorf("trace: decode: %w (limit %d bytes)", ErrTooLarge, maxBytes)
		}
	}
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	return &tr, nil
}

// Validate performs structural sanity checks: tasks spawned before use,
// finish scopes balanced, locks released by their holder, accessed
// locations in range (ErrBadLocation). The bounds on
// Tasks are checked before any allocation sized by it, so a corrupt or
// hostile trace (negative task count, or a count absurdly larger than
// the event stream could introduce) fails cleanly instead of panicking
// or exhausting memory.
func (tr *Trace) Validate() error {
	if tr.Tasks < 1 {
		return fmt.Errorf("trace: no tasks")
	}
	// Every task beyond the root must be introduced by its own KSpawn
	// event, so a valid trace never has more tasks than events+1.
	if int64(tr.Tasks) > int64(len(tr.Events))+1 {
		return fmt.Errorf("trace: %d tasks declared but only %d events", tr.Tasks, len(tr.Events))
	}
	started := make([]bool, tr.Tasks)
	depth := make([]int, tr.Tasks)
	holder := make(map[uint32]int32)
	started[0] = true
	for i, e := range tr.Events {
		if e.Task < 0 || e.Task >= tr.Tasks || !started[e.Task] {
			return fmt.Errorf("trace: event %d: task %d not started", i, e.Task)
		}
		switch e.Kind {
		case KSpawn:
			if e.Child <= 0 || e.Child >= tr.Tasks || started[e.Child] {
				return fmt.Errorf("trace: event %d: bad child %d", i, e.Child)
			}
			started[e.Child] = true
		case KFinishBegin:
			depth[e.Task]++
		case KFinishEnd:
			depth[e.Task]--
			if depth[e.Task] < 0 {
				return fmt.Errorf("trace: event %d: unbalanced finish in task %d", i, e.Task)
			}
		case KAcquire:
			if h, held := holder[e.Lock]; held {
				return fmt.Errorf("trace: event %d: lock %d already held by task %d", i, e.Lock, h)
			}
			holder[e.Lock] = e.Task
		case KRelease:
			if h, held := holder[e.Lock]; !held || h != e.Task {
				return fmt.Errorf("trace: event %d: lock %d not held by task %d", i, e.Lock, e.Task)
			}
			delete(holder, e.Lock)
		case KAccess:
			if e.Loc == 0 || e.Loc >= LockLocBase {
				return fmt.Errorf("trace: event %d: %w (loc %d)", i, ErrBadLocation, e.Loc)
			}
		case KTaskEnd, KInject:
		default:
			return fmt.Errorf("trace: event %d: unknown kind %d", i, e.Kind)
		}
	}
	if len(holder) != 0 {
		return fmt.Errorf("trace: locks left held at end")
	}
	return nil
}
