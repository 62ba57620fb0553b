package model

import (
	"flag"
	"os"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/tables.golden from the current tables")

// TestTablesGolden pins every table the package prints, byte for byte:
// Table 1 for n = 3 and n = 5, Tables 5–8 and the Section 6 worked
// examples.
func TestTablesGolden(t *testing.T) {
	got := strings.Join([]string{
		FormatTable1(3), FormatTable1(5),
		ConsistencyTable(1), ConsistencyTable(2),
		AvailabilityTable(1), AvailabilityTable(2),
		FormatExamples(),
	}, "\n")
	const path = "testdata/tables.golden"
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("tables drifted from %s:\ngot:\n%swant:\n%s", path, got, want)
	}
}
