package engine

import (
	"fmt"
	"io"
	"runtime"
	"sync"
)

// defaultWorkers is one worker per CPU core.
func defaultWorkers() int {
	return runtime.GOMAXPROCS(0)
}

// Tee fans one event out to several consumers, in order.
func Tee(sinks ...func(Event)) func(Event) {
	return func(ev Event) {
		for _, s := range sinks {
			if s != nil {
				s(ev)
			}
		}
	}
}

// Progress returns an event consumer that writes a human-readable line per
// event to w. It is safe for use as Options.Events with any worker count.
func Progress(w io.Writer) func(Event) {
	var mu sync.Mutex
	done := 0
	return func(ev Event) {
		mu.Lock()
		defer mu.Unlock()
		switch ev.Kind {
		case ExperimentStarted:
			fmt.Fprintf(w, "start %-4s %s\n", ev.ID, ev.Title)
		case ExperimentPanicked:
			fmt.Fprintf(w, "panic %-4s %s\n", ev.ID, ev.Err)
		case ExperimentFinished:
			done++
			switch {
			case ev.Err != "":
				fmt.Fprintf(w, "error %-4s %s\n", ev.ID, ev.Err)
			case ev.Failed > 0:
				fmt.Fprintf(w, "FAIL  %-4s %d/%d checks failed (%.2fs)\n",
					ev.ID, ev.Failed, ev.Checks, ev.ElapsedSeconds)
			default:
				fmt.Fprintf(w, "ok    %-4s %d checks (%.2fs, %d reps, %d done)\n",
					ev.ID, ev.Checks, ev.ElapsedSeconds, ev.Replications, done)
			}
		case CheckFailed:
			fmt.Fprintf(w, "      %-4s check failed: %s (%s)\n", ev.ID, ev.Check, ev.Detail)
		case SuiteFinished:
			if ev.Err != "" {
				fmt.Fprintf(w, "suite cancelled after %.2fs: %s\n", ev.ElapsedSeconds, ev.Err)
			} else {
				fmt.Fprintf(w, "suite done: %d experiments, %d failed, %d workers, %.2fs\n",
					ev.Experiments, ev.Failed, ev.Workers, ev.ElapsedSeconds)
			}
		}
	}
}
