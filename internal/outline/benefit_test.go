package outline

import (
	"testing"
	"testing/quick"
)

func TestBenefitModel(t *testing.T) {
	// Figure 2 with the Table 2 example: a 2-instruction sequence repeated
	// twice saves nothing (2*2=4 vs 2+1+2=5 → benefit -1).
	if got := Benefit(2, 2); got != -1 {
		t.Errorf("Benefit(2,2) = %d, want -1", got)
	}
	// A 2-instruction sequence repeated 4 times: 8 vs 7 → benefit 1.
	if got := Benefit(2, 4); got != 1 {
		t.Errorf("Benefit(2,4) = %d, want 1", got)
	}
	// The paper's hottest pattern: length 2 repeated 1006k times.
	if got := Benefit(2, 1006000); got != 2012000-1006003 {
		t.Errorf("Benefit(2,1006000) = %d", got)
	}
}

// TestBenefitProperties: quick-check the model's monotonicity.
func TestBenefitProperties(t *testing.T) {
	f := func(l8, c8 uint8) bool {
		l, c := int(l8%64)+1, int(c8%64)+2
		// Monotone in both arguments.
		return Benefit(l+1, c) >= Benefit(l, c) && Benefit(l, c+1) >= Benefit(l, c)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
