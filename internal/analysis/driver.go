package analysis

// RunPackages is the whole-program driver core shared by cmd/nblb-vet
// and the golden tests: every package is added to the world first (so
// summaries and annotations span all of them), then each analyzer runs
// over each package but a Ref one. Packages must already be in
// dependency order, as Loader.Load returns them.
func RunPackages(world *World, pkgs []*LoadedPackage, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, lp := range pkgs {
		world.AddPackage(lp)
	}
	for _, lp := range pkgs {
		if lp.Ref {
			continue
		}
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer: a,
				Fset:     world.Fset,
				Files:    lp.Files,
				Pkg:      lp.Pkg,
				Info:     lp.Info,
				World:    world,
				diags:    &diags,
			}
			if err := a.Run(pass); err != nil {
				return nil, err
			}
		}
	}
	SortDiagnostics(diags)
	return diags, nil
}
