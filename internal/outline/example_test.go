package outline_test

import (
	"fmt"

	"repro/internal/outline"
)

// The Figure 2 benefit model: outlining a sequence of Length instructions
// that repeats RepeatedTimes saves Length*RepeatedTimes -
// (RepeatedTimes + 1 + Length) instructions.
func ExampleBenefit() {
	fmt.Println(outline.Benefit(2, 2))  // too short and too rare: not worth it
	fmt.Println(outline.Benefit(5, 10)) // clearly worth it
	// Output:
	// -1
	// 34
}
