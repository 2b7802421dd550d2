// Package deadfix is the dead-export fixture: an export some non-test code
// uses, one nothing uses, a method reached only through an interface
// literal, and an unused export whose directive names what keeps it.
package deadfix

// Used is called by report, so it is live.
func Used() int { return 1 }

// Unused has no caller anywhere.
func Unused() int { return 2 } // WANT dead-export

type counter struct{ n int }

// Stats has no caller by name, but report probes for it through an
// interface literal, so it is live.
func (c *counter) Stats() int { return c.n }

// Kept has no caller; its directive names what keeps it.
//
//lint:ignore dead-export fixture: an exception that names its reason
func Kept() int { return 3 }

func report(x any) int {
	if s, ok := x.(interface{ Stats() int }); ok {
		return s.Stats()
	}
	return Used()
}

var _ = report(&counter{})
