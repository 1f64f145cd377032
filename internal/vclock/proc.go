package vclock

import (
	"sync"
	"time"
)

// Wait is what a step returns: the condition its participant waits on
// before its next step. Build one with Park, After, Sleep, Await or Exit.
type Wait struct {
	kind waitKind
	d    time.Duration
	g    *Group
}

type waitKind uint8

const (
	waitPark waitKind = iota
	waitSleep
	waitAwait
	waitExit
)

// Park waits for a Notify.
func Park() Wait { return Wait{kind: waitPark, d: -1} }

// After waits for a Notify or for d to elapse, whichever comes first; a
// negative d means no deadline, as Park. The deadline ties with equal ones
// by the participant's priority (see Proc.Init).
func After(d time.Duration) Wait { return Wait{kind: waitPark, d: d} }

// Sleep waits for d to elapse; a Notify does not end it. The deadline has
// priority 0, whoever sleeps.
func Sleep(d time.Duration) Wait { return Wait{kind: waitSleep, d: d} }

// Await waits until every participant spawned into g has exited.
func Await(g *Group) Wait { return Wait{kind: waitAwait, g: g} }

// Exit ends the participant; Spawn may start it again.
func Exit() Wait { return Wait{kind: waitExit} }

type procState uint8

const (
	off      procState = iota // never spawned, or exited
	running                   // its step is executing
	queued                    // in the run queue
	parked                    // Park or After: a Notify (or a deadline) runs it
	sleeping                  // Sleep: only its deadline runs it
	awaiting                  // Await: its group's last exit runs it
)

// token is a participant's pending notification: at most one, so later
// notifies coalesce into it. A granted token also holds the participant's
// place in the run queue.
type token uint8

const (
	noToken token = iota
	plainToken
	grantedToken
)

// Proc is a participant: a step function plus its scheduling state. Call
// Init before use; embed by value, never copy.
type Proc struct {
	step func() Wait
	pri  int
	v    *Virtual // nil on every other clock: wall semantics

	// Virtual state, touched only by the goroutine driving v.
	state procState
	token token
	group *Group // the group Spawn counted p into, until p exits
	hidx  int    // slot of p's entry in v.deadlines; -1 when none is pending

	// Wall state.
	ch    chan struct{} // the token
	timer *time.Timer   // After's deadline, reused
}

// Init binds p to clk and step. pri orders p's After deadlines among equal
// deadlines: lower first; it must lie in [0, 255]. The runtime uses 0 for
// loops, 1 for pool workers and 2 for the network engine.
func (p *Proc) Init(clk Clock, pri int, step func() Wait) {
	if pri < 0 || pri > 255 {
		panic("vclock: participant priority outside [0, 255]")
	}
	p.step, p.pri, p.hidx = step, pri, -1
	if v, ok := clk.(*Virtual); ok {
		p.v = v
	} else {
		p.ch = make(chan struct{}, 1)
	}
}

// Spawn starts p as a member of g. Under Virtual it appends p's first step
// to the run queue, so spawn order is run order; under Wall it starts a
// goroutine that runs p's steps.
func (p *Proc) Spawn(g *Group) {
	if p.v == nil {
		g.wg.Add(1)
		go func() {
			defer g.wg.Done()
			p.serve()
		}()
		return
	}
	if p.state != off {
		panic("vclock: Spawn of a live participant")
	}
	p.group = g
	g.n++
	p.state = queued
	p.v.enqueue(p)
}

// Run runs p on the calling goroutine until p exits. Under Virtual the
// caller drives the whole clock meanwhile: p's first step runs at once,
// then every queued step and due deadline in turn. It must not be called
// from inside a step.
func (p *Proc) Run() {
	v := p.v
	if v == nil {
		p.serve()
		return
	}
	v.enter()
	defer func() { v.driving = false }()
	p.dispatch()
	for p.state != off {
		v.next().dispatch()
	}
}

// Join waits until every participant spawned into g has exited. Under
// Virtual the caller drives the clock until then. It must not be called
// from inside a step; a step returns Await instead.
func Join(clk Clock, g *Group) {
	v, ok := clk.(*Virtual)
	if !ok {
		g.wg.Wait()
		return
	}
	v.enter()
	defer func() { v.driving = false }()
	for g.n > 0 {
		v.next().dispatch()
	}
}

// Notify posts p a token. A parked participant runs next in the run-queue
// order from now on. With grant set, a running or queued participant gets
// its next run-queue place now too: its next Park or After returns there
// instead of parking. An ungranted token only makes p's next Park or After
// return at once, and is what Drain reports. Granted notifies to a
// sleeping or awaiting participant cannot be honoured and panic.
func (p *Proc) Notify(grant bool) {
	v := p.v
	if v == nil {
		select {
		case p.ch <- struct{}{}:
		default:
		}
		return
	}
	switch {
	case p.state == parked:
		v.clearDeadline(p)
		p.state = queued
		v.enqueue(p)
	case grant && (p.state == sleeping || p.state == awaiting):
		panic("vclock: granted notify to a sleeping or awaiting participant")
	case p.token != noToken:
		// Coalesce into the pending token.
	case grant && (p.state == running || p.state == queued):
		p.token = grantedToken
		v.enqueue(p)
	default:
		p.token = plainToken
	}
}

// Drain consumes a pending token without waiting, revoking its run-queue
// place, and reports whether there was one.
func (p *Proc) Drain() bool {
	if p.v == nil {
		select {
		case <-p.ch:
			return true
		default:
			return false
		}
	}
	switch p.token {
	case noToken:
		return false
	case grantedToken:
		p.v.revoke(p)
	}
	p.token = noToken
	return true
}

// dispatch runs p's steps until p waits on something not yet satisfied.
func (p *Proc) dispatch() {
	for {
		p.state = running
		if !p.settle(p.step()) {
			return
		}
	}
}

// settle files p under the wait its step returned and reports whether p may
// take its next step at once.
func (p *Proc) settle(w Wait) bool {
	v := p.v
	switch w.kind {
	case waitPark:
		switch p.token {
		case grantedToken:
			// p's run-queue place is already taken.
			p.token, p.state = noToken, queued
			return false
		case plainToken:
			p.token = noToken
			return true
		}
		p.state = parked
		if w.d >= 0 {
			v.setDeadline(p, w.d, p.pri)
		}
	case waitSleep:
		p.mustHoldNoGrant()
		p.state = sleeping
		v.setDeadline(p, w.d, 0)
	case waitAwait:
		p.mustHoldNoGrant()
		if w.g.n == 0 {
			return true
		}
		p.state, w.g.waiter = awaiting, p
	case waitExit:
		if p.token == grantedToken {
			v.revoke(p)
			p.token = noToken
		}
		p.state = off
		if g := p.group; g != nil {
			p.group = nil
			g.exit()
		}
	}
	return false
}

func (p *Proc) mustHoldNoGrant() {
	if p.token == grantedToken {
		panic("vclock: Sleep or Await with a granted notify pending")
	}
}

// serve runs p's steps on the calling goroutine under wall semantics,
// blocking between them, until a step exits.
func (p *Proc) serve() {
	for {
		w := p.step()
		switch w.kind {
		case waitExit:
			return
		case waitSleep:
			time.Sleep(w.d)
		case waitAwait:
			w.g.wg.Wait()
		case waitPark:
			if w.d < 0 {
				<-p.ch
				break
			}
			if p.timer == nil {
				p.timer = time.NewTimer(w.d)
			} else {
				p.timer.Reset(w.d)
			}
			select {
			case <-p.ch:
				if !p.timer.Stop() {
					<-p.timer.C
				}
			case <-p.timer.C:
			}
		}
	}
}

// Group counts spawned participants until they exit, like a
// sync.WaitGroup that a step can Await. The zero value is ready to use.
type Group struct {
	n      int   // Virtual: live members
	waiter *Proc // Virtual: the participant Awaiting the group
	wg     sync.WaitGroup
}

// exit retires a member under Virtual; the last one queues the awaiter.
func (g *Group) exit() {
	g.n--
	if g.n == 0 && g.waiter != nil {
		w := g.waiter
		g.waiter = nil
		w.state = queued
		w.v.enqueue(w)
	}
}
