// The benchmark is a module of its own so that it builds from its own
// build file; its path sits under geonet's so that it may import
// geonet/internal/... through the replace below.
module geonet/bench

go 1.24

require geonet v0.0.0

replace geonet => ../
