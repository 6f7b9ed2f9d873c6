package distlock

import (
	"testing"
	"unsafe"
)

// TestSessionFootprint: a certified in-process transaction is one
// allocation, the facade Session with its engine session embedded, and
// that allocation fits Go's 160-byte size class.
func TestSessionFootprint(t *testing.T) {
	if got := unsafe.Sizeof(Session{}); got > 160 {
		t.Fatalf("distlock.Session is %d bytes, want <= 160 (the 160-byte size class); "+
			"new wire, pipeline or trace state belongs in runtime's sessionExtra", got)
	}
}
