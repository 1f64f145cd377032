package bugs

import (
	"bytes"
	"fmt"
	"time"

	"nodefz/internal/asyncutil"
	"nodefz/internal/oracle"
	"nodefz/internal/simfs"
)

// akaPromApp ports agentkeepalive's pooled-socket atomicity violation
// (Table 2's AKA row is the same module) onto the promise layer: a request
// races its backend fetch against a timeout with Promise.race, and on
// timeout the caller moves on — but nothing cancels the fetch, so its late
// completion still streams into the pooled buffer after the slot has been
// handed to the next request. Two failures compound: the timed-out
// request's response chain has no rejection handler (an unhandled
// rejection, so request 1 simply hangs), and the orphaned completion
// corrupts request 2's response.
//
// The fix is the cancellation primitive: guard the fetch with an
// AbortSignal, handle the timeout rejection (respond 504, abort the fetch,
// hand the slot over *from the chain*), and have the fetch completion
// discard its data when the signal has fired.
func akaPromApp() *App {
	return &App{
		Abbr: "AKA-prom", Name: "agentkeepalive", Issue: "#48 (promise port)",
		Type: "Module", LoC: "0.3K", DlMo: "1.2M",
		Desc:         "Keep-alive HTTP agent with socket pooling",
		RaceType:     "AV",
		RacingEvents: "FS-Timer",
		RaceOn:       "Pooled buffer",
		Impact:       "Hung request; late data of a timed-out request corrupts the next request on the pooled slot.",
		FixStrategy:  "AbortSignal cancellation plus a rejection handler on the race.",
		Novel:        true,
		InFig6:       true,
		Run:          func(cfg RunConfig) Outcome { return akaPromRun(cfg, false) },
		RunFixed:     func(cfg RunConfig) Outcome { return akaPromRun(cfg, true) },
	}
}

func akaPromRun(cfg RunConfig, fixed bool) Outcome {
	l := cfg.NewLoop()
	Watchdog(l, 3*time.Second)
	rej := asyncutil.TrackRejections(l)

	var out Outcome
	fs := simfs.New()
	r1Body := bytes.Repeat([]byte("1"), 48)
	r2Body := bytes.Repeat([]byte("2"), 48)
	if err := fs.Mkdir("/backend"); err != nil {
		return Outcome{Note: "setup: " + err.Error()}
	}
	if err := fs.WriteFile("/backend/r1.meta", []byte("/backend/r1")); err != nil {
		return Outcome{Note: "setup: " + err.Error()}
	}
	if err := fs.WriteFile("/backend/r1", r1Body); err != nil {
		return Outcome{Note: "setup: " + err.Error()}
	}
	if err := fs.WriteFile("/backend/r2", r2Body); err != nil {
		return Outcome{Note: "setup: " + err.Error()}
	}
	fsa := simfs.Bind(l, fs, FSLatency, cfg.Seed)

	// The pooled slot: one reusable response buffer.
	var slot []byte
	responded1 := false
	dispatched2 := false
	var response2 []byte

	// --- request 2: dispatched when the slot is handed over ---
	dispatch2 := func() {
		if dispatched2 {
			return
		}
		dispatched2 = true
		asyncutil.NewPromise(l, func(resolve func(any), reject func(error)) {
			fsa.ReadFile("/backend/r2", func(data []byte, err error) {
				if err != nil {
					reject(err)
					return
				}
				cfg.Oracle.Access("akap:slot", oracle.Write)
				slot = data
				// Flush to the client a beat later — the window the
				// orphaned completion of request 1 can land in.
				l.SetTimeoutNamed("flush", 2*time.Millisecond, func() {
					cfg.Oracle.Access("akap:slot", oracle.Read)
					response2 = slot
					resolve(nil)
				})
			})
		}).Catch(func(err error) (any, error) {
			if out.Note == "" {
				out.Note = "setup: " + err.Error()
			}
			return nil, nil
		})
	}

	// --- request 1: fetch (two backend trips) raced against a timeout ---
	ctrl := asyncutil.NewAbortController(l)
	sig := ctrl.Signal()
	fetch1 := asyncutil.NewPromise(l, func(resolve func(any), reject func(error)) {
		fsa.ReadFile("/backend/r1.meta", func(meta []byte, err error) {
			if err != nil {
				reject(err)
				return
			}
			fsa.ReadFile(string(meta), func(data []byte, err error) {
				if err != nil {
					reject(err)
					return
				}
				if fixed && sig.Aborted() {
					return // cancelled: discard, never touch the slot
				}
				// The fetch streams into the pooled slot. In the buggy
				// variant this runs even after the timeout abandoned the
				// request — the orphaned write.
				cfg.Oracle.Access("akap:slot", oracle.Write)
				slot = data
				resolve(nil)
			})
		})
	})
	timeout := asyncutil.NewPromise(l, func(_ func(any), reject func(error)) {
		l.SetTimeoutNamed("timeout", 8*time.Millisecond, func() {
			reject(fmt.Errorf("request 1 timed out"))
		})
	})
	respond1 := func() {
		cfg.Oracle.Access("akap:slot", oracle.Read)
		responded1 = true
		slot = nil // release the pooled slot
		dispatch2()
	}
	if fixed {
		guarded := fetch1.WithSignal(sig)
		asyncutil.PromiseRace(l, []*asyncutil.Promise{guarded, timeout}).
			Then(func(any) (any, error) { respond1(); return nil, nil }).
			Catch(func(err error) (any, error) {
				// Timeout (or cancellation): abort the fetch so its late
				// completion discards, answer 504, and hand the slot over
				// from inside the chain so the handoff is causally ordered.
				ctrl.Abort(err)
				responded1 = true
				slot = nil
				dispatch2()
				return nil, nil
			})
	} else {
		// BUG: no rejection handler — on timeout the chain dies silently
		// (request 1 hangs, the rejection is unhandled) and nothing stops
		// the in-flight fetch.
		asyncutil.PromiseRace(l, []*asyncutil.Promise{fetch1, timeout}).
			Then(func(any) (any, error) { respond1(); return nil, nil })
		// The pool's janitor eventually reclaims the wedged slot and lets
		// the next request proceed — concurrently with the orphaned fetch.
		l.SetTimeoutNamed("janitor", 14*time.Millisecond, func() {
			if !responded1 {
				slot = nil
				dispatch2()
			}
		})
	}

	cfg.AddFSNoise(l, cfg.Seed, 1200*time.Microsecond, 20*time.Millisecond)
	AddTimerNoise(l, 1500*time.Microsecond, 30*time.Millisecond)
	if err := l.Run(); err != nil {
		return Outcome{Note: "run: " + err.Error()}
	}
	if out.Note != "" {
		return out
	}
	unhandled := rej.Unhandled()
	corrupted := len(response2) > 0 && !bytes.Equal(response2, r2Body)
	if !responded1 || corrupted {
		out.Manifested = true
		switch {
		case !responded1 && corrupted:
			out.Note = fmt.Sprintf("request 1 hung and its late data corrupted request 2 (%d unhandled rejections)", len(unhandled))
		case !responded1:
			out.Note = fmt.Sprintf("request 1 hung: timeout rejection had no handler (%d unhandled rejections)", len(unhandled))
		default:
			out.Note = "request 2 served request 1's data from the pooled slot"
		}
	}
	return out
}
