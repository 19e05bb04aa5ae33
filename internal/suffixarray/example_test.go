package suffixarray_test

import (
	"fmt"
	"sort"

	"repro/internal/suffixarray"
)

// The paper's Figure 1 example: the repeats of "banana" and their
// occurrence counts — the internal nodes of its suffix tree.
func ExampleBuild() {
	seq := make([]uint32, 0, 7)
	for _, r := range "banana$" {
		seq = append(seq, uint32(r))
	}
	var lines []string
	for _, rep := range suffixarray.Build(seq).Repeats(1, 2) {
		label := ""
		for _, s := range rep.Label() {
			label += string(rune(s))
		}
		lines = append(lines, fmt.Sprintf("%q repeats %d times", label, rep.Count))
	}
	sort.Strings(lines)
	for _, l := range lines {
		fmt.Println(l)
	}
	// Output:
	// "a" repeats 3 times
	// "ana" repeats 2 times
	// "na" repeats 2 times
}
