// Package lib plants the shapes a syntax-only surface check misjudges: a
// dead method whose name a type selector shares, a method reached only
// through a generic constraint, and a String method only fmt calls.
package lib

import (
	"fmt"
	"io"
)

// Report is what a caller selects as lib.Report.
type Report struct{ ID string }

// Client is used, but its Report method is not: the one dead name here.
type Client struct{ last Report }

// Report returns the last report.
func (c *Client) Report() Report { return c.last }

// Table is printed only through Show's constraint.
type Table struct{ Rows int }

// Print writes the table.
func (t Table) Print(w io.Writer) { fmt.Fprintf(w, "%d rows\n", t.Rows) }

// Show prints v.
func Show[T interface{ Print(io.Writer) }](w io.Writer, v T) { v.Print(w) }

// Level is printed only by fmt, through fmt.Stringer.
type Level int

// String names the level.
func (l Level) String() string { return fmt.Sprintf("level %d", int(l)) }
