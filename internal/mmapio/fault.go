package mmapio

import (
	"fmt"
	"runtime/debug"
	"strings"
)

// Guard runs f, which reads the mapped files paths, with faults made panics
// (runtime/debug.SetPanicOnFault), and returns a fault on a page of one of
// them — the file shrank under its mapping — as one error naming them,
// where it would otherwise kill the process. The error wraps the runtime's,
// which has an Addr method. Other panics go on. Goroutines f starts need a
// recovery of their own (core.CallersView.ExpandAllCtx raises its workers'
// faults again on the goroutine that called it).
func Guard(f func() error, paths ...string) (err error) {
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	defer func() {
		if p := recover(); p != nil {
			fault, ok := p.(interface {
				error
				Addr() uintptr
			})
			if !ok {
				panic(p)
			}
			err = fmt.Errorf("reading %s: fault on a page of the mapped file: %w", strings.Join(paths, " or "), fault)
		}
	}()
	return f()
}
