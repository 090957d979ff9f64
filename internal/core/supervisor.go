package core

import (
	"fmt"
	"log"
	"sync"
	"time"
)

// SupervisorConfig tunes panic recovery for supervised monitor jobs.
type SupervisorConfig struct {
	// MaxRestarts bounds how many times a panicking job is restarted
	// before the supervisor gives up on it (default 5).
	MaxRestarts int
	// BaseBackoff is the delay before the first restart (default 100 ms);
	// each further restart doubles it up to MaxBackoff.
	BaseBackoff time.Duration
	// MaxBackoff caps the restart delay (default 5 s).
	MaxBackoff time.Duration
	// Logf receives supervision events (panics, restarts, give-ups);
	// log.Printf by default.
	Logf func(format string, args ...any)
	// Sleep waits between restarts; time.Sleep by default. Tests inject a
	// recording stub so backoff is observable without wall-clock waits.
	Sleep func(time.Duration)
}

func (c SupervisorConfig) withDefaults() SupervisorConfig {
	if c.MaxRestarts <= 0 {
		c.MaxRestarts = 5
	}
	if c.BaseBackoff <= 0 {
		c.BaseBackoff = 100 * time.Millisecond
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = 5 * time.Second
	}
	if c.Logf == nil {
		c.Logf = log.Printf
	}
	if c.Sleep == nil {
		c.Sleep = time.Sleep
	}
	return c
}

// JobStatus is a snapshot of one supervised job.
type JobStatus struct {
	Name string
	// Running is true while the job goroutine is alive (including backoff
	// waits between restarts).
	Running bool
	// Restarts counts panic recoveries so far.
	Restarts int
	// LastPanic holds the most recent recovered panic value, rendered.
	LastPanic string
	// GaveUp is set when the job exceeded MaxRestarts.
	GaveUp bool
	// Err is the error the job's final run returned, if any.
	Err error
}

// Supervisor keeps online monitor jobs alive: each job runs in its own
// goroutine, a panic is recovered and logged instead of killing the
// process, and the job is restarted with exponential backoff. A job that
// keeps panicking past MaxRestarts is abandoned (and reported), so one
// poisoned CPI stream cannot wedge the supervisor in a hot crash loop.
type Supervisor struct {
	cfg SupervisorConfig

	mu   sync.Mutex
	jobs map[string]*supJob
	stop chan struct{}
	done bool
	wg   sync.WaitGroup
}

type supJob struct {
	status JobStatus
}

// NewSupervisor builds a supervisor; zero-valued cfg fields are defaulted.
func NewSupervisor(cfg SupervisorConfig) *Supervisor {
	return &Supervisor{
		cfg:  cfg.withDefaults(),
		jobs: make(map[string]*supJob),
		stop: make(chan struct{}),
	}
}

// Supervise starts run under supervision as name. run receives a stop
// channel that closes when the supervisor shuts down; a clean return (or an
// error return, which is recorded) ends the job, while a panic restarts it
// with backoff. Each restart calls run afresh, so per-run state (like a
// detect.Monitor poisoned by the panic) is rebuilt.
func (s *Supervisor) Supervise(name string, run func(stop <-chan struct{}) error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.done {
		return fmt.Errorf("core: supervisor is stopped")
	}
	if _, dup := s.jobs[name]; dup {
		return fmt.Errorf("core: job %q is already supervised", name)
	}
	j := &supJob{status: JobStatus{Name: name, Running: true}}
	s.jobs[name] = j
	s.wg.Add(1)
	go s.loop(name, j, run)
	return nil
}

// loop is the per-job supervision goroutine.
func (s *Supervisor) loop(name string, j *supJob, run func(stop <-chan struct{}) error) {
	defer s.wg.Done()
	for {
		err, panicked := s.runOnce(name, j, run)
		if !panicked {
			s.mu.Lock()
			j.status.Running = false
			j.status.Err = err
			s.mu.Unlock()
			return
		}
		select {
		case <-s.stop:
			s.mu.Lock()
			j.status.Running = false
			s.mu.Unlock()
			return
		default:
		}
		s.mu.Lock()
		restarts := j.status.Restarts
		if restarts >= s.cfg.MaxRestarts {
			j.status.Running = false
			j.status.GaveUp = true
			s.mu.Unlock()
			s.cfg.Logf("core: monitor %q exceeded %d restarts, giving up", name, s.cfg.MaxRestarts)
			return
		}
		j.status.Restarts++
		s.mu.Unlock()
		backoff := s.cfg.BaseBackoff << restarts
		if backoff > s.cfg.MaxBackoff || backoff <= 0 {
			backoff = s.cfg.MaxBackoff
		}
		s.cfg.Logf("core: monitor %q restarting in %v (restart %d/%d)",
			name, backoff, restarts+1, s.cfg.MaxRestarts)
		s.cfg.Sleep(backoff)
	}
}

// runOnce executes one attempt of the job, converting a panic into a
// logged, recorded event.
func (s *Supervisor) runOnce(name string, j *supJob, run func(stop <-chan struct{}) error) (err error, panicked bool) {
	defer func() {
		if r := recover(); r != nil {
			panicked = true
			msg := fmt.Sprint(r)
			s.mu.Lock()
			j.status.LastPanic = msg
			s.mu.Unlock()
			s.cfg.Logf("core: monitor %q panicked: %s", name, msg)
		}
	}()
	return run(s.stop), false
}

// Status returns a snapshot of one job.
func (s *Supervisor) Status(name string) (JobStatus, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[name]
	if !ok {
		return JobStatus{}, false
	}
	return j.status, true
}

// Statuses snapshots every supervised job.
func (s *Supervisor) Statuses() []JobStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JobStatus, 0, len(s.jobs))
	for _, j := range s.jobs {
		out = append(out, j.status)
	}
	return out
}

// Stop shuts the supervisor down: the stop channel closes, running jobs are
// given the chance to return, and Stop blocks until every job goroutine has
// exited. Jobs mid-backoff exit without restarting.
func (s *Supervisor) Stop() {
	s.mu.Lock()
	if !s.done {
		s.done = true
		close(s.stop)
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// SuperviseMonitor runs online anomaly detection for ctx under sup (see
// Profile.SuperviseMonitor). Alerts report the original ctx even when it
// maps onto the global no-context profile.
func (s *System) SuperviseMonitor(sup *Supervisor, name string, ctx Context, warmup []float64, samples <-chan float64, onAlert func(Context)) error {
	if onAlert != nil {
		alert := onAlert
		onAlert = func(Context) { alert(ctx) }
	}
	_, err := online(s, ctx, ErrNoModel, func(p *Profile) (struct{}, error) {
		return struct{}{}, p.SuperviseMonitor(sup, name, warmup, samples, onAlert)
	})
	return err
}

// SuperviseMonitor runs online anomaly detection for this profile under
// sup: each (re)start builds a fresh Monitor from the trained detector —
// so a panic cannot leave a half-updated monitor behind — registers it in
// the profile's monitor registry under the job name, and feeds it CPI
// samples from samples; an alert invokes onAlert. The job ends (and the
// monitor detaches) when samples closes or the supervisor stops.
func (p *Profile) SuperviseMonitor(sup *Supervisor, name string, warmup []float64, samples <-chan float64, onAlert func(Context)) error {
	if _, err := p.Detector(); err != nil {
		return err // fail fast: no point supervising an untrainable job
	}
	return sup.Supervise(name, func(stop <-chan struct{}) error {
		m, err := p.NewMonitor(warmup)
		if err != nil {
			return err
		}
		p.monitors.Attach(name, m)
		defer p.monitors.Detach(name)
		for {
			select {
			case <-stop:
				return nil
			case v, ok := <-samples:
				if !ok {
					return nil
				}
				if m.Offer(v) && onAlert != nil {
					onAlert(p.key)
				}
			}
		}
	})
}
