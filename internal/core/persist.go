package core

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"invarnetx/internal/detect"
	"invarnetx/internal/invariant"
	"invarnetx/internal/signature"
	"invarnetx/internal/xmlstore"
)

// File layout used by SaveTo/LoadFrom: one XML file per profile, named by
// its operation context and holding every artefact the profile has — the
// performance model, the invariant set, the drift-lifecycle state (when
// enabled) and the signatures — so a profile saves with one atomic rename
// and restores whole or not at all, concurrently with every other profile.
//
//	<dir>/profile-<workload>-<ip>.xml
//
// The paper stores each model and invariant set "in an XML file"; this
// mirrors that and makes the offline training results reusable across
// process restarts.

// ctxFileToken encodes a context field for use in a file name. The name's
// separator '-', characters that are path separators or glob
// metacharacters on any supported platform ('/', '\', '*', '?', ':') and
// '%' itself are percent-escaped, so a hostile or merely unusual workload
// name cannot escape the store directory, collide with shell expansion, or
// shift the boundary between the two fields. The empty field is the empty
// token, which no other field produces.
func ctxFileToken(s string) string {
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch c {
		case '%', '-', '*', '?', '/', '\\', ':':
			fmt.Fprintf(&b, "%%%02X", c)
		default:
			b.WriteByte(c)
		}
	}
	return b.String()
}

// storePath names ctx's profile file. LoadFrom routes by the file's own ip
// and type, never by this name, so the encoding only has to be safe and
// injective over contexts, not invertible.
func storePath(dir string, ctx Context) string {
	return filepath.Join(dir, "profile-"+ctxFileToken(ctx.Workload)+"-"+ctxFileToken(ctx.IP)+".xml")
}

// SaveTo writes the profile's trained model, invariant set, lifecycle state
// and signatures into dir (created if needed) as its one store file, written
// atomically (temp + rename): a crash mid-save leaves the previous complete
// file in place rather than a truncated or half-updated one. A profile with
// nothing trained or labelled writes nothing.
func (p *Profile) SaveTo(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f := xmlstore.ProfileFile{Version: xmlstore.FormatVersion, IP: p.key.IP, Type: p.key.Workload}
	// Snapshot under the read lock, write the file outside it: persistence
	// I/O must not block this profile's online path.
	p.mu.RLock()
	d, set := p.detector, p.invariants
	for _, e := range p.sigs.Entries() {
		f.Signatures = append(f.Signatures, xmlstore.SignatureEntry{
			Tuple: e.Tuple.String(), Problem: e.Problem, IP: e.IP, Type: e.Workload,
		})
	}
	p.mu.RUnlock()
	if d != nil {
		f.Model = xmlstore.EncodeModel(d)
	}
	if set != nil {
		f.Invariants = xmlstore.EncodeInvariants(set)
		f.Lifecycle = p.lifecycleSection(set)
	}
	if d == nil && set == nil && len(f.Signatures) == 0 {
		return nil
	}
	if err := xmlstore.SaveFile(storePath(dir, p.key), f); err != nil {
		return fmt.Errorf("core: saving profile %v: %w", p.key, err)
	}
	return nil
}

// SaveTo persists every profile into dir (created if needed). Profiles save
// concurrently — each holds only its own lock — and every file is written
// atomically. The first error is returned, but every profile still gets its
// save attempt, so one bad profile does not abandon the rest of the store.
func (s *System) SaveTo(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	profiles := s.Profiles()
	errs := make([]error, len(profiles))
	var wg sync.WaitGroup
	for i, p := range profiles {
		wg.Add(1)
		go func(i int, p *Profile) {
			defer wg.Done()
			errs[i] = p.SaveTo(dir)
		}(i, p)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// SkippedFile records one store file LoadFrom could not recover.
type SkippedFile struct {
	Name string
	Err  error
}

// LoadReport summarises a LoadFrom: how many artefacts were recovered, which
// files were skipped as corrupt or unreadable, and what the restore cost —
// store files read (skipped ones included), their size, and the wall time,
// which for a daemon is time spent not serving.
type LoadReport struct {
	Models     int
	Invariants int
	Signatures int
	Lifecycles int
	Skipped    []SkippedFile

	Files   int
	Bytes   int64
	Elapsed time.Duration
}

// Partial reports whether any store file had to be skipped.
func (r *LoadReport) Partial() bool { return len(r.Skipped) > 0 }

func (r *LoadReport) String() string {
	s := fmt.Sprintf("loaded %d models, %d invariant sets, %d signatures",
		r.Models, r.Invariants, r.Signatures)
	if r.Lifecycles > 0 {
		s += fmt.Sprintf(", %d lifecycle states", r.Lifecycles)
	}
	size := fmt.Sprintf("%.1f MB", float64(r.Bytes)/1e6)
	if r.Bytes < 1e5 {
		size = fmt.Sprintf("%.1f kB", float64(r.Bytes)/1e3)
	}
	s += fmt.Sprintf(" from %d files (%s) in %d ms", r.Files, size, r.Elapsed.Milliseconds())
	if r.Partial() {
		names := make([]string, len(r.Skipped))
		for i, sk := range r.Skipped {
			names[i] = sk.Name
		}
		s += fmt.Sprintf("; skipped %d corrupt files (%s)", len(r.Skipped), strings.Join(names, ", "))
	}
	return s
}

// LoadFrom restores the profiles previously written by SaveTo. Loaded
// artefacts replace in-memory ones in the profile of the same context.
//
// Recovery is per profile: a profile file that is truncated, empty,
// malformed, newer-versioned, or holds any section or signature that fails
// to decode or validate is skipped whole and reported in the returned
// LoadReport, and every other profile still comes back. Files of the
// per-artefact layout that predates profile files are reported, not read.
// The error return is reserved for dir-level failures (the directory itself
// unreadable).
func (s *System) LoadFrom(dir string) (*LoadReport, error) {
	start := time.Now()
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	rep := &LoadReport{}
	for _, e := range entries {
		name := e.Name()
		kind, _, ok := strings.Cut(name, "-")
		if !ok || !strings.HasSuffix(name, ".xml") {
			continue
		}
		var err error
		switch kind {
		case "profile":
			err = s.loadProfile(dir, name, rep)
		case "model", "invariants", "signatures", "lifecycle":
			err = fmt.Errorf("core: %s is a per-artefact store file, a layout that predates this build (one profile-<workload>-<ip>.xml per profile); it is not read", name)
		default:
			continue
		}
		rep.Files++
		if info, ierr := e.Info(); ierr == nil {
			rep.Bytes += info.Size()
		}
		if err != nil {
			rep.Skipped = append(rep.Skipped, SkippedFile{Name: name, Err: err})
		}
	}
	rep.Elapsed = time.Since(start)
	return rep, nil
}

// loadProfile restores the profile file dir/name.
func (s *System) loadProfile(dir, name string, rep *LoadReport) error {
	f, sigs, err := xmlstore.LoadProfile(filepath.Join(dir, name))
	if err != nil {
		return fmt.Errorf("core: loading %s: %w", name, err)
	}
	if err := s.restoreProfile(&f, sigs, rep); err != nil {
		return fmt.Errorf("core: decoding %s: %w", name, err)
	}
	return nil
}

// restoreProfile installs one decoded profile file whole, or nothing of it:
// every section must decode and validate before anything is installed. sigs
// is the file's own signature base, of the file's context (the decoder
// refuses a signature of any other): into a profile with no signatures yet
// — every profile of a restore at boot — it is adopted whole.
func (s *System) restoreProfile(f *xmlstore.ProfileFile, sigs *signature.DB, rep *LoadReport) error {
	var (
		d   *detect.Detector
		set *invariant.Set
		lc  *lifecycle
		err error
	)
	if f.Model != nil {
		if d, err = f.Model.Decode(); err != nil {
			return err
		}
	}
	if f.Invariants != nil {
		if set, err = f.Invariants.Decode(); err != nil {
			return err
		}
	}
	if f.Lifecycle != nil && s.cfg.Lifecycle { // inert in a train-once deployment
		if lc, err = restoredLifecycle(set, f.Lifecycle); err != nil {
			return err
		}
	}
	p := s.Profile(loadedCtx(f.Type, f.IP))
	if d != nil {
		p.setDetector(d)
		rep.Models++
	}
	if set != nil {
		p.setInvariants(set)
		rep.Invariants++
	}
	if lc != nil {
		p.lc.adopt(lc)
		rep.Lifecycles++
	}
	// Merge, not append: loading over a live system must not duplicate what
	// is already there.
	p.mu.Lock()
	rep.Signatures += p.sigs.MergeFrom(sigs)
	p.mu.Unlock()
	return nil
}

// loadedCtx rebuilds a profile key from persisted fields.
func loadedCtx(workloadType, ip string) Context {
	return Context{Workload: workloadType, IP: ip}
}
