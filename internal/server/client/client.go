// Package client is the Go client for ftspmd with built-in overload
// etiquette: retryable failures (429 shed, 503 drain/queue-timeout, and
// transport errors before a response) are retried with exponential
// backoff and jitter, and a server-supplied Retry-After hint always
// takes precedence over the computed backoff.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"ftspm/internal/server"
)

// StatusError is a non-2xx reply that was not (or could no longer be)
// retried.
type StatusError struct {
	Code       int
	Body       server.ErrorResponse
	RetryAfter time.Duration // parsed Retry-After hint, 0 if absent
}

func (e *StatusError) Error() string {
	msg := e.Body.Error
	if msg == "" {
		msg = http.StatusText(e.Code)
	}
	return fmt.Sprintf("ftspmd: %d: %s", e.Code, msg)
}

// Config parameterizes a Client. The zero value of every field selects
// the default in parentheses.
type Config struct {
	// BaseURL locates the daemon, e.g. "http://127.0.0.1:8077".
	BaseURL string
	// HTTPClient is the underlying transport (http.DefaultClient).
	HTTPClient *http.Client
	// MaxRetries bounds retry attempts beyond the first try (4).
	MaxRetries int
	// BaseBackoff is the first retry's backoff before jitter (200ms);
	// it doubles per attempt up to MaxBackoff (5s).
	BaseBackoff, MaxBackoff time.Duration
}

// Client talks to one ftspmd instance.
type Client struct {
	cfg Config

	// sleep, jitter, and now are test seams: the retry delay actuator,
	// the jitter transform (default: uniform in [d/2, d]), and the
	// clock HTTP-date Retry-After values are measured against.
	sleep  func(ctx context.Context, d time.Duration) error
	jitter func(d time.Duration) time.Duration
	now    func() time.Time
}

// New builds a Client for the daemon at cfg.BaseURL.
func New(cfg Config) (*Client, error) {
	if cfg.BaseURL == "" {
		return nil, errors.New("client: Config.BaseURL is required")
	}
	if _, err := url.Parse(cfg.BaseURL); err != nil {
		return nil, fmt.Errorf("client: base URL: %w", err)
	}
	if cfg.HTTPClient == nil {
		cfg.HTTPClient = http.DefaultClient
	}
	if cfg.MaxRetries <= 0 {
		cfg.MaxRetries = 4
	}
	if cfg.BaseBackoff <= 0 {
		cfg.BaseBackoff = 200 * time.Millisecond
	}
	if cfg.MaxBackoff <= 0 {
		cfg.MaxBackoff = 5 * time.Second
	}
	return &Client{
		cfg: cfg,
		sleep: func(ctx context.Context, d time.Duration) error {
			t := time.NewTimer(d)
			defer t.Stop()
			select {
			case <-t.C:
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		},
		jitter: func(d time.Duration) time.Duration {
			return d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
		},
		now: time.Now,
	}, nil
}

// Evaluate runs one synchronous evaluation.
func (c *Client) Evaluate(ctx context.Context, req server.EvaluateRequest) (*server.EvaluateResponse, error) {
	var out server.EvaluateResponse
	if err := c.do(ctx, http.MethodPost, "/v1/evaluate", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Sweep submits an asynchronous sweep campaign job.
func (c *Client) Sweep(ctx context.Context, req server.SweepRequest) (server.JobStatus, error) {
	var out server.JobStatus
	err := c.do(ctx, http.MethodPost, "/v1/sweep", req, &out)
	return out, err
}

// Soak submits an asynchronous soak campaign job.
func (c *Client) Soak(ctx context.Context, req server.SoakRequest) (server.JobStatus, error) {
	var out server.JobStatus
	err := c.do(ctx, http.MethodPost, "/v1/soak", req, &out)
	return out, err
}

// Job fetches one job's status.
func (c *Client) Job(ctx context.Context, id string) (server.JobStatus, error) {
	var out server.JobStatus
	err := c.do(ctx, http.MethodGet, "/v1/jobs/"+url.PathEscape(id), nil, &out)
	return out, err
}

// Jobs lists every job the daemon knows about.
func (c *Client) Jobs(ctx context.Context) (server.JobList, error) {
	var out server.JobList
	err := c.do(ctx, http.MethodGet, "/v1/jobs", nil, &out)
	return out, err
}

// Cancel requests cancellation of a job and returns its status.
func (c *Client) Cancel(ctx context.Context, id string) (server.JobStatus, error) {
	var out server.JobStatus
	err := c.do(ctx, http.MethodDelete, "/v1/jobs/"+url.PathEscape(id), nil, &out)
	return out, err
}

// Ready fetches /readyz. A not-ready daemon answers 503; Ready decodes
// the status either way and only reports other failures as errors.
func (c *Client) Ready(ctx context.Context) (server.ReadyStatus, error) {
	var out server.ReadyStatus
	err := c.do(ctx, http.MethodGet, "/readyz", nil, &out)
	var se *StatusError
	if errors.As(err, &se) && se.Code == http.StatusServiceUnavailable {
		return server.ReadyStatus{Ready: false, Draining: true}, nil
	}
	return out, err
}

// Healthz fetches /healthz: liveness plus the load signals the fabric
// coordinator uses for placement. It is a probe, so it makes exactly
// one attempt: a failure is the answer, and re-probing is the caller's
// policy (the fabric's worker loop re-probes every ProbeInterval).
func (c *Client) Healthz(ctx context.Context) (server.HealthStatus, error) {
	var out server.HealthStatus
	_, err := c.send(ctx, http.MethodGet, "/healthz", nil, &out)
	return out, err
}

// WaitJob polls a job until it reaches a terminal state or ctx expires.
func (c *Client) WaitJob(ctx context.Context, id string, poll time.Duration) (server.JobStatus, error) {
	if poll <= 0 {
		poll = 250 * time.Millisecond
	}
	for {
		st, err := c.Job(ctx, id)
		if err != nil {
			return st, err
		}
		switch st.State {
		case server.JobDone, server.JobFailed, server.JobCanceled, server.JobInterrupted:
			return st, nil
		}
		if err := c.sleep(ctx, poll); err != nil {
			return st, err
		}
	}
}

// retryable reports whether a reply status is worth retrying: 429 means
// the server shed the request before doing anything with it, and 503
// means it is draining or the queue wait timed out — in every case no
// server-side state was created, so resubmitting is safe.
func retryable(code int) bool {
	return code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable
}

// do runs one request with the retry policy. Transport errors (no
// response at all) are retried for GETs only; mutating requests retry
// only on explicit 429/503 replies, which the server guarantees precede
// any state change.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	var body []byte
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			return fmt.Errorf("client: encode request: %w", err)
		}
	}
	backoff := c.cfg.BaseBackoff
	var lastErr error
	for attempt := 0; ; attempt++ {
		resp, err := c.send(ctx, method, path, body, out)
		if err == nil {
			return nil
		}
		lastErr = err
		retryAfter := time.Duration(0)
		var se *StatusError
		switch {
		case errors.As(err, &se):
			if !retryable(se.Code) {
				return err
			}
			retryAfter = se.RetryAfter
		case ctx.Err() != nil:
			return err
		case method != http.MethodGet:
			return err
		}
		_ = resp
		if attempt >= c.cfg.MaxRetries {
			return fmt.Errorf("client: giving up after %d attempts: %w", attempt+1, lastErr)
		}
		delay, derr := c.retryDelay(ctx, backoff, retryAfter, lastErr)
		if derr != nil {
			return derr
		}
		if err := c.sleep(ctx, delay); err != nil {
			return fmt.Errorf("client: %w (last failure: %v)", err, lastErr)
		}
		if backoff *= 2; backoff > c.cfg.MaxBackoff {
			backoff = c.cfg.MaxBackoff
		}
	}
}

// retryDelay picks the wait before the next attempt: the jittered
// backoff, overridden by a server Retry-After hint (the server knows
// its backlog better than our schedule does), but never past the
// request deadline — a delay the deadline cannot absorb fails now
// instead of sleeping into certain failure.
func (c *Client) retryDelay(ctx context.Context, backoff, retryAfter time.Duration, lastErr error) (time.Duration, error) {
	delay := c.jitter(backoff)
	if retryAfter > delay {
		delay = retryAfter
	}
	if dl, ok := ctx.Deadline(); ok {
		if remaining := dl.Sub(c.now()); delay >= remaining {
			return 0, fmt.Errorf("client: retry delay %v exceeds request deadline: %w", delay, lastErr)
		}
	}
	return delay, nil
}

// send runs exactly one HTTP exchange.
func (c *Client) send(ctx context.Context, method, path string, body []byte, out any) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.cfg.BaseURL+path, rd)
	if err != nil {
		return nil, fmt.Errorf("client: build request: %w", err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.cfg.HTTPClient.Do(req)
	if err != nil {
		return nil, fmt.Errorf("client: %s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
	if err != nil {
		return resp, fmt.Errorf("client: read response: %w", err)
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		se := &StatusError{Code: resp.StatusCode}
		_ = json.Unmarshal(data, &se.Body) // non-JSON error bodies keep the status text
		se.RetryAfter = parseRetryAfter(resp.Header.Get("Retry-After"), c.now())
		return resp, se
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return resp, fmt.Errorf("client: decode response: %w", err)
		}
	}
	return resp, nil
}

// parseRetryAfter parses a Retry-After header value in either RFC 9110
// form — delta-seconds or an HTTP-date, measured against now. Absent,
// unparseable, or already-elapsed values yield 0.
func parseRetryAfter(h string, now time.Time) time.Duration {
	if h == "" {
		return 0
	}
	if secs, err := strconv.ParseInt(h, 10, 64); err == nil {
		if secs > 0 {
			return time.Duration(secs) * time.Second
		}
		return 0
	}
	if t, err := http.ParseTime(h); err == nil {
		if d := t.Sub(now); d > 0 {
			return d
		}
	}
	return 0
}
