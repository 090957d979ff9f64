package faults_test

import (
	"fmt"

	"invarnetx/internal/faults"
)

// ExampleKinds lists the fault set of the paper's evaluation.
func ExampleKinds() {
	kinds := faults.Kinds()
	fmt.Printf("%d faults, first: %s, last: %s\n", len(kinds), kinds[0], kinds[len(kinds)-1])
	// Output:
	// 15 faults, first: cpu-hog, last: block-r
}
