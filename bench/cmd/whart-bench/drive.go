package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"wirelesshart/internal/cluster"
	"wirelesshart/internal/engine"
)

// requestTimeout is whart-server's default -timeout.
const requestTimeout = 30 * time.Second

// deployment is the system under test: one engine per replica, each built
// as whart-server builds it by default and served on a real loopback
// listener, plus the benchmark's clients, which all talk to replica 0.
type deployment struct {
	engines  []*engine.Engine
	handlers []http.Handler // unwrapped engine handlers
	servers  []*http.Server
	served   []chan error
	url      string // replica 0

	clients    []*http.Client
	transports []*http.Transport
}

// deploy starts replicas engines (a consistent-hash ring when more than
// one) and nclients keep-alive clients. wrap, when non-nil, wraps replica
// 0's handler.
func deploy(replicas, nclients int, wrap func(http.Handler) http.Handler) (*deployment, error) {
	lns := make([]net.Listener, replicas)
	members := make([]cluster.Member, replicas)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return nil, fmt.Errorf("listen: %w", err)
		}
		lns[i] = ln
		members[i] = cluster.Member{ID: string(rune('a' + i)), URL: "http://" + ln.Addr().String()}
	}
	cfgs := make([]engine.Config, replicas)
	for i := range cfgs {
		if replicas == 1 {
			break
		}
		// As whart-server assembles it: the peers plus self, whose URL
		// stays empty because nothing forwards to itself.
		ring, err := cluster.NewRing(members[i].ID, ringMembers(members, i), 0)
		if err != nil {
			for _, l := range lns {
				l.Close()
			}
			return nil, err
		}
		cfgs[i].Ring = ring
	}
	d := &deployment{url: members[0].URL}
	for i, ln := range lns {
		eng := engine.New(cfgs[i])
		h := engine.NewHandler(eng, requestTimeout)
		served := h
		if i == 0 && wrap != nil {
			served = wrap(h)
		}
		srv := &http.Server{Handler: served, ReadHeaderTimeout: 5 * time.Second}
		errc := make(chan error, 1)
		go func() { errc <- srv.Serve(ln) }()
		d.engines = append(d.engines, eng)
		d.handlers = append(d.handlers, h)
		d.servers = append(d.servers, srv)
		d.served = append(d.served, errc)
	}
	for i := 0; i < nclients; i++ {
		// One connection per client: a closed-loop client never has two
		// requests in flight.
		tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
		d.transports = append(d.transports, tr)
		d.clients = append(d.clients, &http.Client{Transport: tr})
	}
	return d, nil
}

func ringMembers(all []cluster.Member, self int) []cluster.Member {
	out := append([]cluster.Member(nil), all...)
	out[self].URL = ""
	return out
}

// close shuts every replica down and waits for its Serve to return.
func (d *deployment) close() error {
	for _, tr := range d.transports {
		tr.CloseIdleConnections()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var errs []error
	for i, srv := range d.servers {
		errs = append(errs, srv.Shutdown(ctx))
		if err := <-d.served[i]; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
	}
	// Peer forwards ride the default transport (cluster.NewClient's
	// default); drop its connections to the replicas just closed.
	if tr, ok := http.DefaultTransport.(*http.Transport); ok {
		tr.CloseIdleConnections()
	}
	return errors.Join(errs...)
}

// loop is one closed-loop pass over a request sequence. Clients share an
// atomic index into seq, so the requests issued are the same whatever the
// speed; a pass stops at limit requests or at the deadline, whichever is
// set and comes first.
type loop struct {
	seq      []*request
	limit    int       // 0: no limit
	deadline time.Time // zero: none
	// keepEvery retains every keepEvery-th response body for the value
	// check after the pass (0: none).
	keepEvery int
	// prefix records the elapsed time when that many requests completed.
	prefix int
}

// kept is a response retained for the value check.
type kept struct {
	req  *request
	body []byte
	turn int // 0 for the first kept response of the sequence, then 1, ...
}

// passStats is what one closed-loop pass, or one client of it, observed.
type passStats struct {
	attempted int
	failed    int
	firstErr  error
	latMS     []float64 // client-observed, send to last body byte; ascending
	kept      []kept
	elapsed   time.Duration // first send to last completion
	atPrefix  time.Duration // elapsed when the prefix-th request completed
}

// drive runs one pass with every client of the deployment.
func (d *deployment) drive(l loop) passStats {
	var next, done, atPrefix atomic.Int64
	per := make([]passStats, len(d.clients))
	start := time.Now()
	var wg sync.WaitGroup
	for c, hc := range d.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			per[c] = d.clientLoop(hc, &l, &next, func() {
				if n := done.Add(1); int(n) == l.prefix {
					atPrefix.Store(int64(time.Since(start)))
				}
			})
		}()
	}
	wg.Wait()
	st := passStats{elapsed: time.Since(start), atPrefix: time.Duration(atPrefix.Load())}
	for _, c := range per {
		st.attempted += c.attempted
		st.failed += c.failed
		if st.firstErr == nil {
			st.firstErr = c.firstErr
		}
		st.latMS = append(st.latMS, c.latMS...)
		st.kept = append(st.kept, c.kept...)
	}
	sort.Float64s(st.latMS)
	return st
}

func (d *deployment) clientLoop(hc *http.Client, l *loop, next *atomic.Int64, completed func()) passStats {
	var st passStats
	var buf bytes.Buffer
	for {
		i := int(next.Add(1) - 1)
		if (l.limit > 0 && i >= l.limit) || (!l.deadline.IsZero() && !time.Now().Before(l.deadline)) {
			return st
		}
		r := l.seq[i%len(l.seq)]
		t0 := time.Now()
		status, err := post(hc, d.url+r.path, r.body, &buf)
		st.latMS = append(st.latMS, float64(time.Since(t0))/1e6)
		completed()
		st.attempted++
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("%s: status %d: %.200s", r.path, status, buf.Bytes())
		}
		if err == nil {
			err = checkKeys(buf.Bytes(), r)
		}
		if err != nil {
			st.failed++
			if st.firstErr == nil {
				st.firstErr = err
			}
			continue
		}
		if l.keepEvery > 0 && i%l.keepEvery == 0 {
			st.kept = append(st.kept, kept{req: r, body: bytes.Clone(buf.Bytes()), turn: i / l.keepEvery})
		}
	}
}

// post sends one JSON request and reads the whole response into buf.
func post(hc *http.Client, url string, body []byte, buf *bytes.Buffer) (int, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return resp.StatusCode, fmt.Errorf("read response: %w", err)
	}
	return resp.StatusCode, nil
}
