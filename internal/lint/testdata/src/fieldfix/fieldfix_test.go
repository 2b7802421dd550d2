package fieldfix

import "testing"

func TestOnlyHere(t *testing.T) {
	if (Options{TestOnly: 1}).TestOnly != 1 {
		t.Fatal("unreachable")
	}
}
