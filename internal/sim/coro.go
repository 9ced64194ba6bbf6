//go:build go1.23

package sim

import (
	"iter"
	"runtime"
)

// Procs are coroutines. iter.Pull turns a process body into a pair of
// functions: next runs the body until it parks or returns, and the
// yield it hands the body switches straight back to the engine. The
// switch goes from goroutine to goroutine without passing through the
// runtime scheduler, which is what makes a resume cheap (DESIGN.md,
// "Procs and callbacks").
//
// The build constraint, not go.mod, asks for Go 1.23: go.mod stays at
// go 1.22, so a module that requires this one at go 1.22 (bench/) needs
// no go.mod update.

// goschedEvery is how many proc resumes pass between two yields of the
// engine goroutine to the runtime scheduler. A coroutine switch skips
// the scheduler, so at GOMAXPROCS=1 the GC's fractional mark worker
// would rarely get the processor and the write barrier would stay on
// for most of a run. DESIGN.md gives the gctrace numbers behind 16.
const goschedEvery = 16

// start makes p a coroutine that runs fn when first resumed. Pull's
// stop function is not kept: shutdown resumes every live proc until its
// body returns, which ends the coroutine.
func (p *Proc) start(fn func(*Proc)) {
	p.next, _ = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		returned := false
		defer func() {
			p.done = true
			if !returned {
				// runtime.Goexit is unwinding the body (t.FailNow in a
				// test proc). iter.Pull would re-raise it on the engine's
				// goroutine, so park for good instead: the engine sees a
				// done proc and never resumes it.
				yield(struct{}{})
			}
		}()
		if !p.eng.stopping {
			runProc(p, fn)
		}
		returned = true
	})
}

// resume hands the processor to p until it parks or exits.
func (e *Engine) resume(p *Proc) {
	if p.done {
		return
	}
	p.next()
	if e.switches++; e.switches%goschedEvery == 0 {
		runtime.Gosched()
	}
}
