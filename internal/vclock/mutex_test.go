package vclock

import (
	"sync"
	"testing"
	"time"
)

// TestMutexVirtualNeverBlocks: bound to a virtual clock, a Mutex is no lock
// at all — a second Lock without an Unlock returns at once.
func TestMutexVirtualNeverBlocks(t *testing.T) {
	var m Mutex
	m.Bind(NewVirtual())
	done := make(chan struct{})
	go func() {
		m.Lock()
		m.Lock()
		m.Unlock()
		m.Unlock()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("a Mutex bound to a virtual clock blocked")
	}
}

// TestMutexWallExcludes: unbound, bound to Wall, or rebound from a virtual
// clock to Wall, a Mutex excludes: a held lock is not acquired by another
// goroutine until it is released, and increments under it are not lost
// (the race detector would also flag them).
func TestMutexWallExcludes(t *testing.T) {
	for _, tc := range []struct {
		name string
		bind func(*Mutex)
	}{
		{"unbound", func(*Mutex) {}},
		{"wall", func(m *Mutex) { m.Bind(Wall{}) }},
		{"nil clock", func(m *Mutex) { m.Bind(nil) }},
		{"virtual then wall", func(m *Mutex) { m.Bind(NewVirtual()); m.Bind(Wall{}) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var m Mutex
			tc.bind(&m)
			m.Lock()
			got := make(chan struct{})
			go func() {
				m.Lock()
				close(got)
				m.Unlock()
			}()
			select {
			case <-got:
				t.Fatal("a held lock was acquired")
			case <-time.After(20 * time.Millisecond):
			}
			m.Unlock()
			<-got

			const workers, rounds = 4, 500
			n := 0
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < rounds; i++ {
						m.Lock()
						n++
						m.Unlock()
					}
				}()
			}
			wg.Wait()
			if n != workers*rounds {
				t.Fatalf("n = %d, want %d", n, workers*rounds)
			}
		})
	}
}

// TestMutexRebindSameKindIsRaceFree: binding a Mutex to the kind of clock it
// already follows writes nothing, so it may run while another goroutine
// locks and unlocks it — as when several wall-time loops share one
// scheduler and each binds it. Run under -race.
func TestMutexRebindSameKindIsRaceFree(t *testing.T) {
	for _, clk := range []Clock{Wall{}, NewVirtual()} {
		var m Mutex
		m.Bind(clk)
		done := make(chan struct{})
		go func() {
			defer close(done)
			for i := 0; i < 1000; i++ {
				m.Lock()
				m.Unlock()
			}
		}()
		for i := 0; i < 1000; i++ {
			m.Bind(clk)
		}
		<-done
	}
}
