package core

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"invarnetx/internal/xmlstore"
)

// File layout used by SaveTo/LoadFrom: one XML file per trained artefact,
// named by operation context — each profile saves and restores its own
// slice of the store, so persistence is partial and concurrent by
// construction.
//
//	<dir>/model-<workload>-<ip>.xml
//	<dir>/invariants-<workload>-<ip>.xml
//	<dir>/signatures-<workload>-<ip>.xml
//	<dir>/lifecycle-<workload>-<ip>.xml   (drift lifecycle, when enabled)
//
// The paper stores each model and invariant set "in an XML file"; this
// mirrors that and makes the offline training results reusable across
// process restarts.

// ctxFileToken encodes a context field for use in a file name. Characters
// that are path separators or glob metacharacters on any supported
// platform ('/', '\', '*', '?', ':') — plus '%' itself — are
// percent-escaped, so a hostile or merely unusual workload name cannot
// escape the store directory or collide with shell expansion. The empty
// field encodes as "global" (the no-context profile).
func ctxFileToken(s string) string {
	if s == "" {
		return "global"
	}
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch c {
		case '%', '*', '?', '/', '\\', ':':
			fmt.Fprintf(&b, "%%%02X", c)
		default:
			b.WriteByte(c)
		}
	}
	return b.String()
}

// storePath names the store file of one artefact kind ("model",
// "invariants", "signatures", "lifecycle") for ctx. LoadFrom routes by each
// file's own <type>/<ip>, never by this name, so the encoding only has to be
// safe and collision-free, not invertible.
func storePath(dir, kind string, ctx Context) string {
	return filepath.Join(dir, fmt.Sprintf("%s-%s-%s.xml", kind, ctxFileToken(ctx.Workload), ctxFileToken(ctx.IP)))
}

// SaveTo writes the profile's trained model, invariant set and signatures
// into dir (created if needed). Each file is written atomically (temp +
// rename), so a crash mid-save leaves the previous complete store in place
// rather than a truncated one; untrained artefacts write nothing.
func (p *Profile) SaveTo(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	// Snapshot under the read lock, write files outside it: persistence
	// I/O must not block this profile's online path.
	p.mu.RLock()
	d, set := p.detector, p.invariants
	var sigFile *xmlstore.SignatureFile
	if p.sigs.Len() > 0 {
		f := xmlstore.EncodeSignaturesFor(&p.sigs, p.key.IP, p.key.Workload)
		sigFile = &f
	}
	p.mu.RUnlock()
	if d != nil {
		f := xmlstore.EncodeModel(d, p.key.IP, p.key.Workload)
		if err := xmlstore.SaveFile(storePath(dir, "model", p.key), f); err != nil {
			return fmt.Errorf("core: saving model %v: %w", p.key, err)
		}
	}
	if set != nil {
		f := xmlstore.EncodeInvariants(set, p.key.IP, p.key.Workload)
		if err := xmlstore.SaveFile(storePath(dir, "invariants", p.key), f); err != nil {
			return fmt.Errorf("core: saving invariants %v: %w", p.key, err)
		}
	}
	if sigFile != nil {
		if err := xmlstore.SaveFile(storePath(dir, "signatures", p.key), *sigFile); err != nil {
			return fmt.Errorf("core: saving signatures %v: %w", p.key, err)
		}
	}
	// The lifecycle file is written after the invariants file it describes
	// (and fingerprints). A crash between the two leaves the pair
	// inconsistent in at most one direction, which restoreLifecycle detects
	// and resolves toward the invariants file — always a complete,
	// consistent generation.
	if lf, ok := p.lifecycleFile(); ok {
		if err := xmlstore.SaveFile(storePath(dir, "lifecycle", p.key), lf); err != nil {
			return fmt.Errorf("core: saving lifecycle %v: %w", p.key, err)
		}
	}
	return nil
}

// SaveTo persists every profile into dir (created if needed). Profiles save
// concurrently — each holds only its own lock — and every file is written
// atomically. The first error is returned, but every profile still gets its
// save attempt, so one bad artefact does not abandon the rest of the store.
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

// LoadFrom restores models, invariants and signatures previously written by
// SaveTo. Loaded artefacts replace in-memory ones in the profile of the same
// context; on a no-context system everything lands in the single global
// profile.
//
// Recovery is per-file: a truncated, empty, malformed or newer-versioned
// file is skipped and reported in the returned LoadReport instead of
// failing the whole load — after a crash or a partial copy, everything
// still intact comes back. The error return is reserved for dir-level
// failures (the directory itself unreadable).
func (s *System) LoadFrom(dir string) (*LoadReport, error) {
	start := time.Now()
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	rep := &LoadReport{}
	skip := func(name string, err error) {
		rep.Skipped = append(rep.Skipped, SkippedFile{Name: name, Err: err})
	}
	// Lifecycle files attach to invariants loaded from the same directory,
	// so they are collected during the scan and applied in a post-pass —
	// correctness must not hinge on ReadDir's name ordering.
	type pendingLifecycle struct {
		name string
		f    xmlstore.LifecycleFile
	}
	var lifecycles []pendingLifecycle
	for _, e := range entries {
		name := e.Name()
		full := filepath.Join(dir, name)
		kind, _, _ := strings.Cut(name, "-")
		switch {
		case !strings.HasSuffix(name, ".xml"):
			continue
		case kind == "lifecycle" && !s.cfg.Lifecycle.Enabled:
			continue // train-once deployment: lifecycle state is inert
		case kind != "model" && kind != "invariants" && kind != "lifecycle" && kind != "signatures":
			continue
		}
		rep.Files++
		if info, err := e.Info(); err == nil {
			rep.Bytes += info.Size()
		}
		switch kind {
		case "model":
			var f xmlstore.ModelFile
			if err := xmlstore.LoadFile(full, &f); err != nil {
				skip(name, fmt.Errorf("core: loading %s: %w", name, err))
				continue
			}
			d, err := f.Decode()
			if err != nil {
				skip(name, fmt.Errorf("core: decoding %s: %w", name, err))
				continue
			}
			s.Profile(loadedCtx(f.Type, f.IP)).setDetector(d)
			rep.Models++
		case "invariants":
			var f xmlstore.InvariantFile
			if err := xmlstore.LoadFile(full, &f); err != nil {
				skip(name, fmt.Errorf("core: loading %s: %w", name, err))
				continue
			}
			set, err := f.Decode()
			if err != nil {
				skip(name, fmt.Errorf("core: decoding %s: %w", name, err))
				continue
			}
			s.Profile(loadedCtx(f.Type, f.IP)).setInvariants(set)
			rep.Invariants++
		case "lifecycle":
			var f xmlstore.LifecycleFile
			if err := xmlstore.LoadFile(full, &f); err != nil {
				skip(name, fmt.Errorf("core: loading %s: %w", name, err))
				continue
			}
			if err := f.Validate(); err != nil {
				skip(name, fmt.Errorf("core: decoding %s: %w", name, err))
				continue
			}
			lifecycles = append(lifecycles, pendingLifecycle{name: name, f: f})
		case "signatures":
			// The whole file parses and is checked against its own scope
			// before anything merges: one bad tuple or one entry of another
			// context skips the file, never half of it.
			ip, workloadType, sigs, err := xmlstore.LoadSignatureFile(full)
			if err != nil {
				skip(name, fmt.Errorf("core: loading %s: %w", name, err))
				continue
			}
			scope := s.key(loadedCtx(workloadType, ip))
			for i := 0; err == nil && i < len(sigs); i++ {
				if ctx := loadedCtx(sigs[i].Workload, sigs[i].IP); s.key(ctx) != scope {
					err = fmt.Errorf("signature %d belongs to %v, not to the file's %v", i, ctx, scope)
				}
			}
			if err != nil {
				skip(name, fmt.Errorf("core: decoding %s: %w", name, err))
				continue
			}
			// Merge, not append: loading over a live system must not
			// duplicate what is already there.
			rep.Signatures += s.Profile(scope).mergeSignatures(sigs...)
		}
	}
	for _, pl := range lifecycles {
		p, ok := s.lookup(loadedCtx(pl.f.Type, pl.f.IP))
		if !ok {
			skip(pl.name, fmt.Errorf("core: lifecycle state %s has no loaded profile", pl.name))
			continue
		}
		applied, err := p.restoreLifecycle(&pl.f)
		if err != nil {
			skip(pl.name, fmt.Errorf("core: restoring %s: %w", pl.name, err))
			continue
		}
		if applied {
			rep.Lifecycles++
		}
	}
	rep.Elapsed = time.Since(start)
	return rep, nil
}

// loadedCtx rebuilds a profile key from persisted fields.
func loadedCtx(workloadType, ip string) Context {
	return Context{Workload: workloadType, IP: ip}
}
