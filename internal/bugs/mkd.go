package bugs

import (
	"strings"
	"time"

	"nodefz/internal/oracle"
	"nodefz/internal/simfs"
)

// mkdApp models mkdirp bug #2 (Table 2, row 9): an atomicity violation
// between two file-system callback chains racing on file-system state. Two
// concurrent mkdirp calls sharing a path prefix both observe the prefix
// missing; one of them then receives EEXIST for an intermediate directory
// the other just created, and the buggy error handling propagates that as a
// failure — the call returns prematurely without finishing the mkdir.
//
// The paper's fix checks the error code: EEXIST on an intermediate
// directory is verified with a stat and treated as success.
func mkdApp() *App {
	return &App{
		Abbr: "MKD", Name: "mkdirp", Issue: "2",
		Type: "Module", LoC: "0.5K", DlMo: "23.3M",
		Desc:         "Recursive mkdir",
		RaceType:     "AV",
		RacingEvents: "FS-FS",
		RaceOn:       "File system",
		Impact:       "Incorrect response (does not finish mkdir).",
		FixStrategy:  "Check err code.",
		InFig6:       true,
		Run:          func(cfg RunConfig) Outcome { return mkdRun(cfg, false) },
		RunFixed:     func(cfg RunConfig) Outcome { return mkdRun(cfg, true) },
	}
}

func mkdParent(p string) string {
	i := strings.LastIndexByte(p, '/')
	if i <= 0 {
		return "/"
	}
	return p[:i]
}

// mkdirp creates p and any missing parents, like `mkdir -p`.
//
// Oracle tagging: a directory's existence is the shared cell "fsdir:<p>".
// A successful mkdir writes it. The BUGGY error path reads it: treating
// EEXIST as failure relies on "nobody else created this directory", which
// is exactly the assumption a racing sibling chain breaks. The patched
// path stat-verifies the directory instead — it tolerates any creation
// order, so the reliance (and the tag) is gone.
func mkdirp(fsa *simfs.Async, tr *oracle.Tracker, fixed bool, p string, cb func(error)) {
	fsa.Mkdir(p, func(err error) {
		switch {
		case err == nil:
			tr.Access("fsdir:"+p, oracle.Write)
			cb(nil)
		case simfs.IsErrno(err, simfs.ENOENT):
			mkdirp(fsa, tr, fixed, mkdParent(p), func(err2 error) {
				if err2 != nil {
					cb(err2)
					return
				}
				mkdirp(fsa, tr, fixed, p, cb)
			})
		case simfs.IsErrno(err, simfs.EEXIST) && fixed:
			// Patched: EEXIST means someone else (perhaps a concurrent
			// mkdirp) created it; verify it is a directory and carry on.
			fsa.Stat(p, func(info simfs.Info, serr error) {
				if serr == nil && info.IsDir {
					cb(nil)
					return
				}
				cb(err)
			})
		default:
			// BUG: EEXIST from a racing sibling chain propagates as a
			// failure and the mkdirp aborts mid-way.
			if simfs.IsErrno(err, simfs.EEXIST) {
				tr.Access("fsdir:"+p, oracle.Read)
			}
			cb(err)
		}
	})
}

func mkdRun(cfg RunConfig, fixed bool) Outcome {
	l := cfg.NewLoop()
	Watchdog(l, 3*time.Second)

	var out Outcome
	fs := simfs.New()
	fsa := simfs.Bind(l, fs, FSLatency, cfg.Seed)

	// Test case: two mkdirp calls sharing the "/data" prefix, the second
	// issued after the first would normally have completed.
	type result struct {
		path string
		err  error
		done bool
	}
	results := []*result{
		{path: "/data/alpha"},
		{path: "/data/beta"},
	}
	start := func(r *result) {
		mkdirp(fsa, cfg.Oracle, fixed, r.path, func(err error) {
			r.err = err
			r.done = true
		})
	}
	start(results[0])
	l.SetTimeout(7*time.Millisecond, func() { start(results[1]) })

	WaitUntil(l, 15*time.Millisecond, 8*time.Millisecond, 12,
		func() bool { return results[0].done && results[1].done },
		func(bool) {})

	AddTimerNoise(l, 1500*time.Microsecond, 60*time.Millisecond)
	cfg.AddFSNoise(l, cfg.Seed+7, 2*time.Millisecond, 35*time.Millisecond)
	if err := l.Run(); err != nil {
		return Outcome{Note: "run: " + err.Error()}
	}

	for _, r := range results {
		if r.done && r.err != nil {
			return Outcome{
				Manifested: true,
				Note:       "mkdirp(" + r.path + ") failed with " + r.err.Error(),
			}
		}
		if r.done && !fs.Exists(r.path) {
			return Outcome{
				Manifested: true,
				Note:       "mkdirp(" + r.path + ") reported success but the path is missing",
			}
		}
	}
	return out
}
