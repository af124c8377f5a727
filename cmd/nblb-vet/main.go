// nblb-vet runs the engine's static-analysis suite (internal/analysis):
// lockorder, pinleak, walseam and deadexport.
//
//	nblb-vet ./...
//	nblb-vet -analyzers lockorder,pinleak ./internal/core/
//
// All matched packages are loaded from source, so annotations and
// inter-procedural summaries span the entire module; the tests, the
// rest of the module and the nested modules are type-checked too, for
// deadexport's uses. Exit status: 0 clean, 1 findings, 2 operational
// error (a test that does not compile is one).
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/analysis"
)

func main() { os.Exit(run()) }

func run() int {
	var (
		names = flag.String("analyzers", "", "comma-separated analyzer subset (default: all)")
		list  = flag.Bool("list", false, "list analyzers and exit")
	)
	flag.Parse()
	if *list {
		for _, a := range analysis.All() {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	analyzers, err := analysis.ByName(*names)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	dir, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	loader := analysis.NewLoader(dir)
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	diags, err := analysis.RunPackages(analysis.NewWorld(loader.Fset), pkgs, analyzers)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	for _, d := range diags {
		fmt.Fprintln(os.Stderr, d)
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}
