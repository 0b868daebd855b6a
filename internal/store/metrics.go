package store

import "trigene/internal/obs"

// storeMetrics is the Store's resolved series; zero value is a no-op.
type storeMetrics struct {
	builds map[string]*obs.Counter
}

// Instrument registers the store's metrics on reg and starts
// recording. Build counts accumulated before Instrument are credited
// immediately, so the exported counters always equal Builds()
// regardless of when the registry is attached. Pack-loaded stores
// increment trigene_store_pack_loads_total once, labeled by whether
// the packed sections alias an mmap region or a heap buffer.
// Safe to call with a nil registry (a no-op).
func (s *Store) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.om.builds != nil {
		return // already instrumented
	}
	const help = "Representations built from scratch, by encoding."
	s.om.builds = map[string]*obs.Counter{
		"binarized":   reg.Counter("trigene_store_builds_total", help, obs.L("repr", "binarized")),
		"split":       reg.Counter("trigene_store_builds_total", help, obs.L("repr", "split")),
		"naive32":     reg.Counter("trigene_store_builds_total", help, obs.L("repr", "naive32")),
		"words32":     reg.Counter("trigene_store_builds_total", help, obs.L("repr", "words32")),
		"classplanes": reg.Counter("trigene_store_builds_total", help, obs.L("repr", "classplanes")),
		"matrix":      reg.Counter("trigene_store_builds_total", help, obs.L("repr", "matrix")),
	}
	s.om.builds["binarized"].Add(int64(s.builds.Binarized))
	s.om.builds["split"].Add(int64(s.builds.Split))
	s.om.builds["naive32"].Add(int64(s.builds.Naive32))
	s.om.builds["words32"].Add(int64(s.builds.Words32))
	s.om.builds["classplanes"].Add(int64(s.builds.ClassPlanes))
	s.om.builds["matrix"].Add(int64(s.builds.Matrix))

	loads := "Stores adopted from a .tpack, by load mode."
	mmapLoads := reg.Counter("trigene_store_pack_loads_total", loads, obs.L("mode", "mmap"))
	heapLoads := reg.Counter("trigene_store_pack_loads_total", loads, obs.L("mode", "heap"))
	switch {
	case s.mapped != nil:
		mmapLoads.Inc()
	case s.fromPack:
		heapLoads.Inc()
	}
}

// countBuild bumps the exported counter for one representation (the
// internal Builds struct is updated by the caller; both run under
// s.mu).
func (s *Store) countBuild(repr string) {
	if s.om.builds == nil {
		return
	}
	s.om.builds[repr].Inc()
}
