package query

import (
	"errors"
	"fmt"
)

// ErrQueryPanic wraps a panic trapped by Protect. Match with errors.Is.
var ErrQueryPanic = errors.New("query: panic during execution")

// Protect runs fn, converting a panic — the caller's own code or a
// query kernel gone wrong — into an ErrQueryPanic-wrapped error instead
// of letting it unwind past the request handler. Queries spawn no
// goroutines, so one Protect around a query contains all of it.
//
// The daemon's per-request recover middleware is the backstop; Protect
// is for callers that want the failure as an ordinary error with the
// rest of their handler still running (e.g. to strike the tenant and
// keep serving).
func Protect(fn func() error) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("%w: %v", ErrQueryPanic, v)
		}
	}()
	return fn()
}
