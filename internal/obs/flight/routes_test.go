package flight

import "testing"

func TestValidRunID(t *testing.T) {
	for id, want := range map[string]bool{
		"20260806T142530-9f3a2c": true,
		"hand_named-Run1":        true,
		"":                       false,
		"../evil":                false,
		"a/b":                    false,
		"run id":                 false,
		"run.id":                 false,
	} {
		if got := validRunID(id); got != want {
			t.Errorf("validRunID(%q) = %v, want %v", id, got, want)
		}
	}
	if validRunID(string(make([]byte, 200))) {
		t.Error("over-long id accepted")
	}
}

func TestNewRunIDShape(t *testing.T) {
	a, b := NewRunID(), NewRunID()
	if !validRunID(a) || !validRunID(b) {
		t.Fatalf("NewRunID() = %q, %q: not valid run ids", a, b)
	}
	if a == b {
		t.Errorf("two NewRunID() calls collided: %q", a)
	}
}
