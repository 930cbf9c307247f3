// The benchmark is its own module so it builds with its own file and
// stays out of the main module's `go build ./...` and `go test ./...`.
// The require+replace links it to the main module by path; the import
// path prefix `repchain/` is what lets it reach repchain/internal/...
module repchain/benchmark

go 1.22

require repchain v0.0.0

replace repchain => ../
