package locktable

import "errors"

// ErrStopped is returned by operations on a closed Table.
var ErrStopped = errors.New("locktable: table stopped")
