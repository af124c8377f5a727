// The served benchmark is a module of its own so that it builds from
// its own directory and never rides the repository's `go build ./...`
// or `go test ./...`. The module path sits under `repro/` on purpose:
// that is what lets it import repro/internal/... through the replace.
module repro/benchmark

go 1.24

require repro v0.0.0

replace repro => ../
