package replication

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/url"
	"strings"
	"sync"
	"time"

	"repro/internal/faults"
	"repro/internal/statestore"
)

const (
	// ackEvery is how many applied records pass between acks (plus one at
	// every bootstrap end and heartbeat, so the window reopens promptly
	// even on trickle traffic).
	ackEvery = 256
	// dialTimeout bounds one connection attempt.
	dialTimeout = 2 * time.Second
	// backoffMin/backoffMax bound the reconnect backoff. The cap stays
	// low because a promotion may be waiting on the run loop to notice it.
	backoffMin = 25 * time.Millisecond
	backoffMax = 500 * time.Millisecond
)

// Follower tails a primary into a local store. It reconnects with backoff
// until promoted (or stopped), re-bootstrapping whenever the primary no
// longer recognises its position. All puts land through the Import seam,
// so the follower's entries are byte-identical to the primary's and the
// additive digest can prove convergence.
type Follower struct {
	st *statestore.Store

	mu            sync.Mutex
	primary       string
	epoch         string
	lastSeq       int64 // highest applied sequence number under epoch
	conn          net.Conn
	connected     bool
	promoted      bool
	lastErr       string
	bootstraps    int64
	reconnects    int64
	corruptFrames int64

	promoteCh   chan struct{}
	stopCh      chan struct{}
	startOnce   sync.Once
	promoteOnce sync.Once
	stopOnce    sync.Once
	wg          sync.WaitGroup
}

// FollowerStatus is the follower half of /replicate/status. LastSeq vs
// the primary's WALSeq (from its /statz) is the replication lag.
type FollowerStatus struct {
	Primary    string `json:"primary"`
	Connected  bool   `json:"connected"`
	Promoted   bool   `json:"promoted"`
	Epoch      string `json:"epoch"`
	LastSeq    int64  `json:"last_seq"`
	LastErr    string `json:"last_err,omitempty"`
	Bootstraps int64  `json:"bootstraps"`
	Reconnects int64  `json:"reconnects"`
	// CorruptFrames counts frames rejected for a CRC mismatch or a
	// mid-frame cut; each one dropped the connection and cleared the
	// epoch so the next session re-bootstraps from a trusted snapshot.
	CorruptFrames int64 `json:"corrupt_frames,omitempty"`
}

// NewFollower prepares a follower applying into st. primary may be ""
// (a standby: it idles until Retarget names one). Call Start to begin.
func NewFollower(st *statestore.Store, primary string) *Follower {
	return &Follower{
		st:        st,
		primary:   strings.TrimRight(primary, "/"),
		promoteCh: make(chan struct{}),
		stopCh:    make(chan struct{}),
	}
}

// Start launches the replication loop. Safe to call once; Stop or
// Promote ends it.
func (f *Follower) Start() {
	f.startOnce.Do(func() {
		f.wg.Add(1)
		go f.run()
	})
}

// Status snapshots the follower's progress.
func (f *Follower) Status() FollowerStatus {
	f.mu.Lock()
	defer f.mu.Unlock()
	return FollowerStatus{
		Primary: f.primary, Connected: f.connected, Promoted: f.promoted,
		Epoch: f.epoch, LastSeq: f.lastSeq, LastErr: f.lastErr,
		Bootstraps: f.bootstraps, Reconnects: f.reconnects,
		CorruptFrames: f.corruptFrames,
	}
}

// Retarget points the follower at a new primary (re-replication after a
// failover: the fresh follower tails the promoted replica). The current
// session is dropped; the next connect bootstraps because the new
// primary's epoch cannot match.
func (f *Follower) Retarget(primary string) {
	f.mu.Lock()
	f.primary = strings.TrimRight(primary, "/")
	if f.conn != nil {
		f.conn.Close()
	}
	f.mu.Unlock()
}

// Promote permanently stops replication so the local store can take
// writes as a primary. It returns the last applied sequence number after
// the apply loop has fully exited — once Promote returns, no replicated
// record will land anymore.
func (f *Follower) Promote() int64 {
	f.mu.Lock()
	f.promoted = true
	if f.conn != nil {
		f.conn.Close()
	}
	f.mu.Unlock()
	f.promoteOnce.Do(func() { close(f.promoteCh) })
	f.wg.Wait()
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.lastSeq
}

// Stop ends replication without promoting (shutdown path).
func (f *Follower) Stop() {
	// Signal before closing the connection: run checks stopCh under f.mu
	// before it installs a new connection, so either it sees the signal or
	// the close below sees its connection. The other order lets run dial
	// and block on a connection nobody closes, and wg.Wait never returns.
	f.stopOnce.Do(func() { close(f.stopCh) })
	f.mu.Lock()
	if f.conn != nil {
		f.conn.Close()
	}
	f.mu.Unlock()
	f.wg.Wait()
}

func (f *Follower) stopped() bool {
	select {
	case <-f.stopCh:
		return true
	case <-f.promoteCh:
		return true
	default:
		f.mu.Lock()
		defer f.mu.Unlock()
		return f.promoted
	}
}

func (f *Follower) noteErr(err error) {
	f.mu.Lock()
	f.lastErr = err.Error()
	f.mu.Unlock()
}

// run is the reconnect loop: dial, subscribe, consume until the link (or
// the primary) dies, back off, repeat.
func (f *Follower) run() {
	defer f.wg.Done()
	backoff := backoffMin
	for !f.stopped() {
		f.mu.Lock()
		primary := f.primary
		epoch := f.epoch
		seq := f.lastSeq
		f.mu.Unlock()
		if primary == "" {
			// Standby without a primary yet: wait for Retarget.
			if f.sleep(backoffMax) {
				return
			}
			continue
		}
		conn, r, w, err := dialSubscribe(primary, epoch, seq+1)
		if err != nil {
			f.noteErr(err)
			if f.sleep(backoff) {
				return
			}
			if backoff *= 2; backoff > backoffMax {
				backoff = backoffMax
			}
			continue
		}
		f.mu.Lock()
		if f.promoted || f.isStopped() {
			f.mu.Unlock()
			conn.Close()
			return
		}
		f.conn = conn
		f.connected = true
		f.reconnects++
		f.mu.Unlock()

		applied, err := f.consume(r, w)
		if err != nil {
			f.noteErr(err)
		}

		f.mu.Lock()
		f.conn = nil
		f.connected = false
		if errors.Is(err, ErrFrameCorrupt) || errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, errFrameTooLarge) {
			// A corrupt or torn frame means the stream position cannot be
			// trusted: resuming the tail at lastSeq+1 could re-apply or skip
			// records. Dropping the epoch makes the next subscribe look
			// stale, which forces the primary to re-bootstrap us from a
			// consistent snapshot. Dropping the position too keeps Status
			// from reporting the follower caught up before that bootstrap
			// has ended: until fBootEnd the store is stale, then wiped,
			// then partly re-imported.
			f.corruptFrames++
			f.epoch = ""
			f.lastSeq = 0
		}
		f.mu.Unlock()
		conn.Close()
		if applied > 0 {
			backoff = backoffMin
		}
	}
}

func (f *Follower) isStopped() bool {
	select {
	case <-f.stopCh:
		return true
	default:
		return false
	}
}

// sleep waits d or until stop/promote; true means the loop must exit.
func (f *Follower) sleep(d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-f.stopCh:
		return true
	case <-f.promoteCh:
		return true
	case <-t.C:
		return false
	}
}

// consume applies one session's frames. It returns how many records it
// applied (any progress resets the reconnect backoff).
func (f *Follower) consume(r *bufio.Reader, w *bufio.Writer) (applied int64, err error) {
	fw := &frameWriter{w: w}
	ack := func(seq int64) error {
		if err := fw.writeSeq(fAck, seq); err != nil {
			return err
		}
		return w.Flush()
	}
	var buf []byte
	var bootEpoch string // the epoch a running bootstrap commits at fBootEnd
	sinceAck := 0
	for {
		typ, payload, ferr := readFrame(r, buf)
		if ferr != nil {
			return applied, ferr
		}
		buf = payload
		switch typ {
		case fTailStart, fBootStart:
			var h hello
			if err := json.Unmarshal(payload, &h); err != nil {
				return applied, err
			}
			f.mu.Lock()
			if typ == fBootStart {
				// Until fBootEnd the store is wiped and partly re-imported,
				// so it has no position under any epoch: a link that drops
				// mid-bootstrap must re-bootstrap rather than resume a tail,
				// and Status must not report the old position meanwhile.
				f.epoch, f.lastSeq = "", 0
				bootEpoch = h.Epoch
				f.bootstraps++
			} else {
				f.epoch = h.Epoch
			}
			f.mu.Unlock()
			if typ == fBootStart {
				// The bootstrap replaces the whole local state: deletions
				// that happened on the primary while we were away must not
				// survive as ghosts here.
				for _, k := range f.st.Keys() {
					f.st.Delete(k)
				}
			}
		case fBootEntry:
			key, stored, perr := parseBootEntry(payload)
			if perr != nil {
				return applied, perr
			}
			f.st.Import(key, stored)
		case fBootEnd:
			from, perr := parseSeq(payload)
			if perr != nil {
				return applied, perr
			}
			f.mu.Lock()
			f.epoch, f.lastSeq = bootEpoch, from-1
			f.mu.Unlock()
			applied++
			if err := ack(from - 1); err != nil {
				return applied, err
			}
			sinceAck = 0
		case fRecord:
			seq, op, key, val, perr := parseRecordFrame(payload)
			if perr != nil {
				return applied, perr
			}
			f.apply(op, key, val)
			f.mu.Lock()
			f.lastSeq = seq
			f.mu.Unlock()
			applied++
			if sinceAck++; sinceAck >= ackEvery {
				if err := ack(seq); err != nil {
					return applied, err
				}
				sinceAck = 0
			}
		case fHeartbeat:
			_, clock, perr := parseHeartbeat(payload)
			if perr != nil {
				return applied, perr
			}
			f.st.SeedClock(clock)
			f.mu.Lock()
			last := f.lastSeq
			f.mu.Unlock()
			if err := ack(last); err != nil {
				return applied, err
			}
			sinceAck = 0
		default:
			return applied, fmt.Errorf("replication: unexpected frame type %d", typ)
		}
	}
}

// apply installs one replicated record. Puts go through Import (verbatim
// tagged bytes — byte-identical to the primary's entry); a snapshot
// marker triggers a local compaction so the follower's log does not grow
// unbounded relative to its primary's.
func (f *Follower) apply(op byte, key string, val []byte) {
	switch op {
	case statestore.RecPut:
		f.st.Import(key, val)
	case statestore.RecDelete:
		f.st.Delete(key)
	case statestore.RecClock:
		if len(val) == 8 {
			f.st.SeedClock(int64(binary.LittleEndian.Uint64(val)))
		}
	case statestore.RecSnapshot:
		if len(val) == 8 {
			f.st.SeedClock(int64(binary.LittleEndian.Uint64(val)))
		}
		if err := f.st.Snapshot(); err != nil {
			f.noteErr(err)
		}
	}
}

// dialSubscribe opens the replication link: a raw TCP connection, an
// HTTP/1.1 Upgrade handshake on /replicate/subscribe, then the subscribe
// frame. The returned reader may hold bytes the server sent immediately
// after the 101 response.
func dialSubscribe(primary, epoch string, seq int64) (net.Conn, *bufio.Reader, *bufio.Writer, error) {
	u, err := url.Parse(primary)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("replication: parsing primary URL %q: %w", primary, err)
	}
	if u.Scheme != "http" || u.Host == "" {
		return nil, nil, nil, fmt.Errorf("replication: primary URL %q must be http://host:port", primary)
	}
	conn, err := net.DialTimeout("tcp", u.Host, dialTimeout)
	if err != nil {
		return nil, nil, nil, err
	}
	// The fault layer sits under the buffered reader/writer so injected
	// corruption and drops hit the raw framed bytes, exactly like a bad
	// link would.
	conn = faults.WrapConn("repl.conn", primary, conn)
	r := bufio.NewReader(conn)
	w := bufio.NewWriter(conn)
	fmt.Fprintf(w, "POST /replicate/subscribe HTTP/1.1\r\nHost: %s\r\nContent-Length: 0\r\nConnection: Upgrade\r\nUpgrade: %s\r\n\r\n",
		u.Host, UpgradeProtocol)
	if err := w.Flush(); err != nil {
		conn.Close()
		return nil, nil, nil, err
	}
	status, err := r.ReadString('\n')
	if err != nil {
		conn.Close()
		return nil, nil, nil, err
	}
	if !strings.Contains(status, " 101 ") {
		conn.Close()
		return nil, nil, nil, fmt.Errorf("replication: subscribe rejected: %s", strings.TrimSpace(status))
	}
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			conn.Close()
			return nil, nil, nil, err
		}
		if line == "\r\n" || line == "\n" {
			break
		}
	}
	fw := &frameWriter{w: w}
	if err := fw.writeJSON(fSubscribe, subscribeReq{Epoch: epoch, Seq: seq}); err != nil {
		conn.Close()
		return nil, nil, nil, err
	}
	if err := w.Flush(); err != nil {
		conn.Close()
		return nil, nil, nil, err
	}
	return conn, r, w, nil
}
