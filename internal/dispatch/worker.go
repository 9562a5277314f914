package dispatch

import (
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"

	"jessica2/internal/experiments"
)

// maxJobBytes bounds a submitted job envelope; specs are a few KB, so this
// is pure defense against a confused or hostile client.
const maxJobBytes = 4 << 20

// Worker executes dispatched experiment jobs and serves the worker half of
// the dispatch protocol over HTTP. cmd/djvmworker is a thin main around
// this; the loopback tests mount the same handler on httptest servers, so
// the fleet the identity gate exercises is the shipped code path.
//
// The protocol is deliberately small:
//
//	GET  /healthz              liveness (the coordinator's heartbeat target)
//	POST /submit               a sealed job envelope; idempotent per token
//	GET  /result?token=T       204 while running, the sealed out when done,
//	                           404 for tokens this process has never seen
//	                           (a restarted worker lost its state — the
//	                           coordinator resubmits), 500 if the job died
//	POST /ack?token=T          frees a collected result's memory
//
// Results are keyed by lease token, not job index: two epochs of the same
// job are distinct entries, so a worker that receives a reassigned job it
// already ran under an older lease simply runs the new grant — fencing is
// the coordinator's job, the worker only has to never confuse grants.
//
// One worker process can execute several leases concurrently: each
// simulation is single-threaded internally and shares nothing.
type Worker struct {
	mu   sync.Mutex
	jobs map[string]*workerJob

	logf func(format string, args ...any)

	// runs counts job executions started, for diagnostics and tests.
	runs atomic.Int64
}

// workerJob is one lease's execution state.
type workerJob struct {
	lease Lease
	done  chan struct{} // closed when the job finishes either way
	out   []byte        // sealed out envelope (nil if the job failed)
	err   string        // failure description (panic text, encode error)
}

// NewWorker returns an idle worker. logf receives protocol-level events
// (nil discards them).
func NewWorker(logf func(format string, args ...any)) *Worker {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	return &Worker{jobs: make(map[string]*workerJob), logf: logf}
}

// Runs reports how many job executions this worker has started.
func (w *Worker) Runs() int64 { return w.runs.Load() }

// Handler returns the worker's HTTP surface.
func (w *Worker) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", w.handleHealthz)
	mux.HandleFunc("POST /submit", w.handleSubmit)
	mux.HandleFunc("GET /result", w.handleResult)
	mux.HandleFunc("POST /ack", w.handleAck)
	return mux
}

func (w *Worker) handleHealthz(rw http.ResponseWriter, req *http.Request) {
	w.mu.Lock()
	n := len(w.jobs)
	w.mu.Unlock()
	rw.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(rw, `{"ok":true,"jobs":%d}`+"\n", n)
}

func (w *Worker) handleSubmit(rw http.ResponseWriter, req *http.Request) {
	data, err := readBody(rw, req, maxJobBytes)
	if err != nil {
		http.Error(rw, err.Error(), http.StatusBadRequest)
		return
	}
	lease, spec, err := DecodeJob(data)
	if err != nil {
		// Typed decode failure: the submitter gets the reason, and a 400
		// tells the coordinator not to waste retries on this payload.
		http.Error(rw, err.Error(), http.StatusBadRequest)
		return
	}
	w.mu.Lock()
	if _, exists := w.jobs[lease.Token]; exists {
		// Idempotent resubmit: the coordinator retried a submit whose
		// response it lost. The first execution stands.
		w.mu.Unlock()
		rw.WriteHeader(http.StatusOK)
		return
	}
	j := &workerJob{lease: lease, done: make(chan struct{})}
	w.jobs[lease.Token] = j
	w.mu.Unlock()

	w.logf("job %d epoch %d (%s): accepted", lease.Job, lease.Epoch, spec.App)
	go w.run(j, spec)
	rw.WriteHeader(http.StatusOK)
}

// run executes one accepted lease to completion. A panicking simulation
// does not take the worker down: the panic is flattened into the job's
// error state and reported through /result as a 500, which the coordinator
// treats like any other worker failure (reassign elsewhere).
func (w *Worker) run(j *workerJob, spec experiments.Spec) {
	defer close(j.done)
	defer func() {
		if r := recover(); r != nil {
			j.err = fmt.Sprintf("job panicked: %v", r)
			w.logf("job %d epoch %d: %s", j.lease.Job, j.lease.Epoch, j.err)
		}
	}()
	w.runs.Add(1)
	out := experiments.Run(spec)
	enc, err := EncodeOut(out)
	if err != nil {
		j.err = err.Error()
		return
	}
	j.out = enc
	w.logf("job %d epoch %d: done (%d wire bytes)", j.lease.Job, j.lease.Epoch, len(enc))
}

func (w *Worker) handleResult(rw http.ResponseWriter, req *http.Request) {
	token := req.URL.Query().Get("token")
	w.mu.Lock()
	j := w.jobs[token]
	w.mu.Unlock()
	if j == nil {
		// Unknown token: this process never accepted that lease — it
		// restarted, or the submit never arrived. The coordinator resubmits.
		http.Error(rw, "unknown lease token", http.StatusNotFound)
		return
	}
	select {
	case <-j.done:
	default:
		rw.WriteHeader(http.StatusNoContent)
		return
	}
	if j.err != "" {
		http.Error(rw, j.err, http.StatusInternalServerError)
		return
	}
	rw.Header().Set("Content-Type", "application/json")
	rw.Write(j.out)
}

func (w *Worker) handleAck(rw http.ResponseWriter, req *http.Request) {
	token := req.URL.Query().Get("token")
	w.mu.Lock()
	delete(w.jobs, token)
	w.mu.Unlock()
	rw.WriteHeader(http.StatusOK)
}

// readBody drains a bounded request body.
func readBody(rw http.ResponseWriter, req *http.Request, limit int64) ([]byte, error) {
	defer req.Body.Close()
	data, err := io.ReadAll(http.MaxBytesReader(rw, req.Body, limit))
	if err != nil {
		return nil, fmt.Errorf("reading request body: %w", err)
	}
	return data, nil
}
