package locktable

import "errors"

// ErrStopped is returned by operations on a closed Table.
var ErrStopped = errors.New("locktable: table stopped")

// ErrUnknownEntity is returned for an entity the table does not serve:
// one its database gained after the table was built.
var ErrUnknownEntity = errors.New("locktable: entity unknown to the table")
