package bugs

import (
	"time"

	"nodefz/internal/oracle"
	"nodefz/internal/simfs"
)

// clfApp models cinovo-logger-file bug #1 (Table 2, row 4): an atomicity
// violation between a file-system completion callback and a call into the
// racy API. The logger lazily creates its output file on first write, but
// the "created" flag is only set in the asynchronous create callback; a
// second write arriving before that callback issues a duplicate create,
// which truncates the file and loses the first entry.
//
// The paper's fix reads and writes the guard in the same callback: the flag
// is set synchronously when the create is *issued*, not when it completes.
func clfApp() *App {
	return &App{
		Abbr: "CLF", Name: "cinovo-logger-file", Issue: "1",
		Type: "Module", LoC: "0.9K", DlMo: "111",
		Desc:         "Logging module",
		RaceType:     "AV",
		RacingEvents: "FS-Call",
		RaceOn:       "Variable",
		Impact:       "Creates a duplicate file.",
		FixStrategy:  "Rd/wr in the same callback.",
		InFig6:       true,
		Run:          func(cfg RunConfig) Outcome { return clfRun(cfg, false) },
		RunFixed:     func(cfg RunConfig) Outcome { return clfRun(cfg, true) },
	}
}

type clfLogger struct {
	fsa     *simfs.Async
	tr      *oracle.Tracker
	path    string
	created bool // guard for lazy file creation — the racy variable
	queue   []string
	flushed int
	fixed   bool
}

func (lg *clfLogger) log(entry string) {
	lg.queue = append(lg.queue, entry)
	lg.tr.Access("clf:created", oracle.Read)
	if !lg.created {
		if lg.fixed {
			// Patched: guard read and write happen together, synchronously,
			// before the asynchronous create is issued.
			lg.tr.Access("clf:created", oracle.Write)
			lg.created = true
			lg.fsa.Create(lg.path, func(err error) { lg.flush() })
			return
		}
		lg.fsa.Create(lg.path, func(err error) {
			lg.tr.Access("clf:created", oracle.Write)
			lg.created = true // BUG: set only when the create completes
			lg.flush()
		})
		return
	}
	lg.flush()
}

func (lg *clfLogger) flush() {
	lg.tr.Access("clf:created", oracle.Read)
	if !lg.created && !lg.fixed {
		return
	}
	for _, e := range lg.queue {
		e := e
		lg.fsa.Append(lg.path, []byte(e+"\n"), func(error) { lg.flushed++ })
	}
	lg.queue = nil
}

func clfRun(cfg RunConfig, fixed bool) Outcome {
	l := cfg.NewLoop()
	Watchdog(l, 3*time.Second)

	fs := simfs.New()
	lg := &clfLogger{
		fsa:   simfs.Bind(l, fs, 4*time.Millisecond, cfg.Seed),
		tr:    cfg.Oracle,
		path:  "/app.log",
		fixed: fixed,
	}

	// Test case: two log calls far enough apart that an unperturbed
	// schedule completes the lazy create before the second call, close
	// enough that a fuzzed schedule defers the create completion past it.
	lg.log("first entry")
	l.SetTimeout(9*time.Millisecond, func() { lg.log("second entry") })

	AddTimerNoise(l, 1500*time.Microsecond, 40*time.Millisecond)
	cfg.AddFSNoise(l, cfg.Seed+7, 2*time.Millisecond, 25*time.Millisecond)
	if err := l.Run(); err != nil {
		return Outcome{Note: "run: " + err.Error()}
	}

	if n := fs.OpCount("create"); n > 1 {
		return Outcome{
			Manifested: true,
			Note:       "log file created twice (truncating earlier entries)",
		}
	}
	return Outcome{}
}
