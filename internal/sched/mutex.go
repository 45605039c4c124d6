package sched

import (
	"runtime"
	"sync"
)

func yield() { runtime.Gosched() }

// MakeLockToken builds an acquisition token from a lock identity and a
// unique acquisition number. Tokens implement the paper's lock
// versioning: every dynamic acquisition has a distinct token, while the
// identity part lets analyses recover which mutex the token names.
func MakeLockToken(lockID uint32, acquisition uint64) uint64 {
	return uint64(lockID)<<40 | acquisition&(1<<40-1)
}

// LockIdentity extracts the lock identity from an acquisition token.
func LockIdentity(token uint64) uint64 { return token >> 40 }

// LockAcquisition extracts the dynamic acquisition ordinal from an
// acquisition token — the version the paper's lock renaming assigns on
// every re-acquisition.
func LockAcquisition(token uint64) uint64 { return token & (1<<40 - 1) }

// Mutex is an instrumented lock. Lock and Unlock take the acquiring task
// so the runtime can maintain the task's lockset and version the
// acquisition: every dynamic acquisition receives a globally unique
// token, implementing the paper's lock renaming on re-acquisition
// (Section 3.3).
//
// A Mutex must be released by the task that acquired it, and must not be
// held across Spawn's enclosing Finish join (the runtime panics on
// Finish-while-locked, since a helping worker could otherwise deadlock
// on its own suspended task).
type Mutex struct {
	mu   sync.Mutex
	sch  *Scheduler
	loc  Loc
	id   uint32
	name string
}

// NewMutex creates an instrumented mutex with a diagnostic name.
func (s *Scheduler) NewMutex(name string) *Mutex {
	return &Mutex{sch: s, loc: s.AllocLoc(), id: s.nextLockID.Add(1), name: name}
}

// Name returns the diagnostic name of the mutex.
func (m *Mutex) Name() string { return m.name }

// Loc returns the location identifier of the mutex itself, used by
// monitors that model lock operations as accesses (e.g. Velodrome's
// synchronization edges).
func (m *Mutex) Loc() Loc { return m.loc }

// Lock acquires the mutex on behalf of t, pushes a fresh acquisition
// token on t's lockset, and notifies the monitor.
func (m *Mutex) Lock(t *Task) {
	if t.sch != m.sch {
		usage("Mutex.Lock", "task %d locks %q, which belongs to a different session", t.id, m.name)
	}
	m.mu.Lock()
	tok := MakeLockToken(m.id, t.sch.lockTok.Add(1))
	t.locks = append(t.locks, tok)
	t.lockRefs = append(t.lockRefs, m)
	if mon := t.sch.mon; mon != nil {
		mon.OnAcquire(t, m)
	}
}

// Unlock releases the mutex, popping it from t's lockset. Locks may be
// released in any order.
func (m *Mutex) Unlock(t *Task) {
	if t.sch != m.sch {
		usage("Mutex.Unlock", "task %d unlocks %q, which belongs to a different session", t.id, m.name)
	}
	if mon := t.sch.mon; mon != nil {
		mon.OnRelease(t, m)
	}
	for i := len(t.lockRefs) - 1; i >= 0; i-- {
		if t.lockRefs[i] == m {
			t.locks = append(t.locks[:i], t.locks[i+1:]...)
			t.lockRefs = append(t.lockRefs[:i], t.lockRefs[i+1:]...)
			m.mu.Unlock()
			return
		}
	}
	usage("Mutex.Unlock", "task %d unlocks %q without holding it", t.id, m.name)
}
