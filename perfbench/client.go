package main

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"time"
)

// request is one HTTP operation of a workload's stream.
type request struct {
	method string
	path   string // path and query string
	ctype  string // request body media type (POST)
	accept string
	body   string
	kind   string // route or query shape, for per-layer breakdowns
	write  bool
	check  func(*reply) error // answer check; nil checks the status only
	onSend func()             // runs just before the request is sent
}

// reply is what the load generator observed for one request.
type reply struct {
	status int
	header http.Header
	body   []byte
	ttfb   time.Duration // to the first response byte
	total  time.Duration // to the last body byte
	err    error
}

// wire is one keep-alive HTTP/1.1 connection that the calling goroutine
// writes and reads itself. net/http's Transport passes every request to
// a writer goroutine and every response back from a reader goroutine; at
// a few hundred requests per second on an otherwise idle 2-CPU VM each of
// those hand-offs can wake a halted CPU; on explore the wake-ups made up
// a quarter of the measured latency.
type wire struct {
	base string // http://host:port
	c    net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
}

func newWire(base string) *wire { return &wire{base: base} }

func (w *wire) close() {
	if w.c != nil {
		w.c.Close()
		w.c = nil
	}
}

// opTimeout bounds one operation, as an http.Client timeout would.
const opTimeout = 60 * time.Second

// do sends r and reads the whole body, timing the first and last
// response byte from start. The connection is opened on first use and
// again after an error or a reply that closes it; hbold's servers set no
// idle timeout, so a kept-alive connection is not closed under it.
func (w *wire) do(r *request, start time.Time) (out *reply) {
	out = &reply{}
	defer func() {
		out.total = time.Since(start)
		if out.err != nil {
			w.close()
		}
	}()
	var body io.Reader
	if r.body != "" {
		body = strings.NewReader(r.body)
	}
	req, err := http.NewRequest(r.method, w.base+r.path, body)
	if err != nil {
		out.err = err
		return out
	}
	if r.ctype != "" {
		req.Header.Set("Content-Type", r.ctype)
	}
	if r.accept != "" {
		req.Header.Set("Accept", r.accept)
	}
	if w.c == nil {
		c, err := net.Dial("tcp", strings.TrimPrefix(w.base, "http://"))
		if err != nil {
			out.err = err
			return out
		}
		w.c, w.br, w.bw = c, bufio.NewReaderSize(c, 64<<10), bufio.NewWriter(c)
	}
	w.c.SetDeadline(time.Now().Add(opTimeout))
	if r.onSend != nil {
		r.onSend()
	}
	if err = req.Write(w.bw); err == nil {
		err = w.bw.Flush()
	}
	if err == nil {
		_, err = w.br.Peek(1)
	}
	if err != nil {
		out.err = err
		return out
	}
	out.ttfb = time.Since(start)
	resp, err := http.ReadResponse(w.br, req)
	if err != nil {
		out.err = err
		return out
	}
	out.status = resp.StatusCode
	out.header = resp.Header
	out.body, out.err = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.Close {
		w.close()
	}
	return out
}

// verify applies the request's checks to a reply: a transport error, a
// non-2xx status or a wrong answer is a failure.
func verify(r *request, rep *reply) error {
	if rep.err != nil {
		return rep.err
	}
	if rep.status/100 != 2 {
		return fmt.Errorf("%s %s: status %d: %.200s", r.method, r.path, rep.status, rep.body)
	}
	if r.check != nil {
		if err := r.check(rep); err != nil {
			return fmt.Errorf("%s %.120s: %w", r.kind, r.path, err)
		}
	}
	return nil
}
