package vclock

import "sync"

// Mutex is a mutual-exclusion lock for state that the participants of one
// clock share. Under Virtual every step of a trial runs on the one goroutine
// driving the clock (see the package doc), so such a lock can never be
// contended; bound to a *Virtual clock, Lock and Unlock return at once.
// Unbound, or bound to any other clock, it is a sync.Mutex. The zero value
// is an unbound, unlocked lock. Like a sync.Mutex it must not be copied
// after first use.
type Mutex struct {
	mu      sync.Mutex
	virtual bool
}

// Bind makes m follow clk: no lock under a *Virtual clock, a sync.Mutex
// under any other (a nil clock included). Binding m to the kind of clock it
// already follows writes nothing, so several wall-time loops sharing one
// collaborator may each bind it while another goroutine holds the lock.
// Changing the kind must happen while m is unlocked and no other goroutine
// uses it.
func (m *Mutex) Bind(clk Clock) {
	_, virtual := clk.(*Virtual)
	if m.virtual != virtual {
		m.virtual = virtual
	}
}

// Lock locks m, unless m is bound to a virtual clock.
func (m *Mutex) Lock() {
	if !m.virtual {
		m.mu.Lock()
	}
}

// Unlock unlocks m, unless m is bound to a virtual clock.
func (m *Mutex) Unlock() {
	if !m.virtual {
		m.mu.Unlock()
	}
}
