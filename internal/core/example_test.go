package core_test

import (
	"fmt"

	"invarnetx/internal/core"
)

// ExampleNew shows the configuration surface of an InvarNet-X system.
func ExampleNew() {
	sys := core.New(core.DefaultConfig())
	cfg := sys.Config()
	fmt.Printf("epsilon=%.1f tau=%.1f\n", cfg.Epsilon, cfg.Tau)
	fmt.Printf("signatures stored: %d\n", sys.SignatureCount())
	// Output:
	// epsilon=0.2 tau=0.2
	// signatures stored: 0
}
