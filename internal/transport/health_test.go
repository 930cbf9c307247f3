package transport

import "testing"

// TestHealthReady checks the readiness rule: ready once a majority of
// the governors report a height of at least one block, and always for
// a nil Health.
func TestHealthReady(t *testing.T) {
	var none *Health
	none.SetHeight("governor/0", 5) // nil-safe
	if ok, detail := none.Ready(); !ok || detail != "ok" {
		t.Fatalf("nil Health: Ready() = %v, %q", ok, detail)
	}

	for _, tc := range []struct {
		name    string
		heights map[string]uint64
		ok      bool
		detail  string
	}{
		{"no governor reporting", nil, false,
			"not ready governors=5 reporting=0 committed=0 quorum=3 height_min=0 height_max=0"},
		{"minority committed", map[string]uint64{"governor/0": 2, "governor/1": 1, "governor/2": 0, "governor/3": 0}, false,
			"not ready governors=5 reporting=4 committed=2 quorum=3 height_min=0 height_max=2"},
		{"majority committed", map[string]uint64{"governor/0": 4, "governor/1": 1, "governor/2": 3, "governor/3": 0}, true,
			"ok governors=5 reporting=4 committed=3 quorum=3 height_min=0 height_max=4"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := NewHealth(5)
			for id, height := range tc.heights {
				h.SetHeight(id, height)
			}
			if ok, detail := h.Ready(); ok != tc.ok || detail != tc.detail {
				t.Fatalf("Ready() = %v, %q; want %v, %q", ok, detail, tc.ok, tc.detail)
			}
		})
	}
}
