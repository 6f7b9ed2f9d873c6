package locktable

import "errors"

// ErrWounded is returned by Acquire when the requesting instance was
// picked as a deadlock-handling victim while waiting: its Doomed channel
// fired. The request is gone from the wait queue on return.
var ErrWounded = errors.New("locktable: instance wounded while waiting")

// ErrStopped is returned by operations on a closed Table.
var ErrStopped = errors.New("locktable: table stopped")
