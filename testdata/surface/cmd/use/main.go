// Command use is the fixture's one caller of package lib.
package main

import (
	"fmt"
	"os"

	"fixture/internal/lib"
)

func main() {
	var c lib.Client
	var r lib.Report
	lib.Show(os.Stdout, lib.Table{Rows: len(r.ID)})
	fmt.Println(lib.Level(1), c)
}
