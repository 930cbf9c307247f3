package repchain_test

import (
	"os"
	"testing"
)

// designLimit is DESIGN.md's size ratchet in bytes. A change may shrink
// the document but not grow it past this; the limit is only ever lowered,
// to the document's size when it is next reviewed as a whole.
const designLimit = 91_956

// TestDesignWithinRatchet fails when DESIGN.md grows past designLimit.
func TestDesignWithinRatchet(t *testing.T) {
	info, err := os.Stat("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	if n := info.Size(); n > designLimit {
		t.Fatalf("DESIGN.md is %d bytes, over its %d-byte ratchet: move narrative to CHANGES.md or cut", n, designLimit)
	}
}
