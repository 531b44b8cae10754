//! The scenario client: streams submissions, obeys the credit window,
//! and reassembles outcomes in submission order.

use super::wire::{
    self, ExploreRequest, Frame, MetricsSnapshot, ServeGauges, Submit, WireError, WireOutcome,
    DEFAULT_MAX_FRAME, DEFAULT_WINDOW,
};
use crate::explore::ExploreReport;
use crate::pool::BatchOptions;
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{TcpStream, ToSocketAddrs};

/// A connection to a scenario server.
///
/// Submissions are numbered internally; [`ScenarioClient::recv`]
/// always yields the next outcome in **submission order**, buffering
/// whatever arrives early, so out-of-order completion on the server's
/// shard pool is invisible to callers. Submitting past the granted
/// credit window blocks (draining incoming frames) until the server
/// returns a credit.
///
/// Submissions are coalesced: [`submit`](Self::submit) encodes into an
/// outbox, and one socket write sends it — before the client next
/// reads, ahead of any other frame it writes, when a submit takes the
/// last credit, or on [`flush`](Self::flush). The outbox therefore
/// never holds more than one credit window of submissions, and the
/// bytes on the wire are the same as one write per frame. Dropping the
/// client discards submissions it has not sent.
#[derive(Debug)]
pub struct ScenarioClient {
    stream: TcpStream,
    /// Encoded frames not yet written.
    outbox: Vec<u8>,
    cursor: wire::FrameCursor,
    max_frame: u32,
    /// Window granted by the server's Hello.
    window: u32,
    /// Credits currently available for submission.
    credits: u32,
    /// Feature bits granted by the server's Hello.
    features: u32,
    next_seq: u64,
    next_deliver: u64,
    pending: BTreeMap<u64, WireOutcome>,
}

impl ScenarioClient {
    /// Connects with the default window, accepting any served system.
    ///
    /// # Errors
    ///
    /// Connection or handshake failure.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, WireError> {
        Self::connect_with(addr, DEFAULT_WINDOW, 0)
    }

    /// Connects requesting a credit window and (optionally) pinning the
    /// compiled system by fingerprint — pass 0 to accept any.
    ///
    /// # Errors
    ///
    /// Connection failure, or a typed remote error (e.g. a
    /// system-fingerprint mismatch).
    pub fn connect_with(
        addr: impl ToSocketAddrs,
        window: u32,
        fingerprint: u64,
    ) -> Result<Self, WireError> {
        Self::connect_opts(addr, window, fingerprint, 0)
    }

    /// Connects requesting [`wire::feature::LATENCY`]: against a PR-9
    /// server every outcome carries its server-side
    /// [`OutcomeLatency`](wire::OutcomeLatency) breakdown; an older
    /// server ignores the request (check [`features`](Self::features)).
    ///
    /// # Errors
    ///
    /// Connection failure, or a typed remote error.
    pub fn connect_latency(
        addr: impl ToSocketAddrs,
        window: u32,
        fingerprint: u64,
    ) -> Result<Self, WireError> {
        Self::connect_opts(addr, window, fingerprint, wire::feature::LATENCY)
    }

    fn connect_opts(
        addr: impl ToSocketAddrs,
        window: u32,
        fingerprint: u64,
        features: u32,
    ) -> Result<Self, WireError> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        wire::write_frame(&mut stream, &Frame::Hello { window, fingerprint, features })?;
        let mut client = ScenarioClient {
            stream,
            outbox: Vec::new(),
            cursor: wire::FrameCursor::new(),
            max_frame: DEFAULT_MAX_FRAME,
            window: 0,
            credits: 0,
            features: 0,
            next_seq: 0,
            next_deliver: 0,
            pending: BTreeMap::new(),
        };
        match client.read_frame()? {
            Frame::Hello { window: granted, features: granted_features, .. } => {
                client.window = granted.max(1);
                client.credits = client.window;
                client.features = granted_features;
                Ok(client)
            }
            Frame::Error { code, message } => Err(WireError::Remote { code, message }),
            other => Err(WireError::Protocol(format!(
                "expected Hello from server, got {other:?}"
            ))),
        }
    }

    /// The credit window granted at handshake.
    pub fn window(&self) -> u32 {
        self.window
    }

    /// The [`wire::feature`] bits the server granted at handshake.
    pub fn features(&self) -> u32 {
        self.features
    }

    /// Outcomes received but not yet delivered in order.
    pub fn buffered(&self) -> usize {
        self.pending.len()
    }

    /// Submits one scripted scenario; returns its sequence number.
    /// Blocks while no credits are available, draining incoming frames.
    /// The frame waits in the outbox until the next send point (see
    /// [`ScenarioClient`]); a submit that takes the last credit sends
    /// at once.
    ///
    /// # Errors
    ///
    /// I/O failure, a malformed stream, or a typed remote error.
    pub fn submit(
        &mut self,
        script: Vec<Vec<String>>,
        limits: BatchOptions,
    ) -> Result<u64, WireError> {
        if self.credits == 0 {
            pscp_obs::metrics::SERVE_CREDIT_STALLS.inc();
            while self.credits == 0 {
                self.pump()?;
            }
        }
        self.credits -= 1;
        let seq = self.next_seq;
        self.next_seq += 1;
        self.outbox.extend(wire::encode_frame(&Frame::Submit(Submit { seq, limits, script })));
        if self.credits == 0 {
            self.flush()?;
        }
        Ok(seq)
    }

    /// Writes every buffered submission to the socket in one write.
    ///
    /// # Errors
    ///
    /// I/O failure.
    pub fn flush(&mut self) -> Result<(), WireError> {
        if !self.outbox.is_empty() {
            self.stream.write_all(&self.outbox)?;
            self.outbox.clear();
        }
        Ok(())
    }

    /// Sends `frame` behind any buffered submissions, in the same write.
    fn send(&mut self, frame: &Frame) -> Result<(), WireError> {
        self.outbox.extend(wire::encode_frame(frame));
        self.flush()
    }

    /// Receives the next outcome **in submission order**, blocking
    /// until it arrives.
    ///
    /// # Errors
    ///
    /// I/O failure, a malformed stream, or a typed remote error.
    pub fn recv(&mut self) -> Result<(u64, WireOutcome), WireError> {
        self.flush()?;
        loop {
            if let Some(outcome) = self.pending.remove(&self.next_deliver) {
                let seq = self.next_deliver;
                self.next_deliver += 1;
                return Ok((seq, outcome));
            }
            self.pump()?;
        }
    }

    /// Submits every script and returns their outcomes in submission
    /// order — the streaming equivalent of
    /// [`SimPool::run_batch`](crate::pool::SimPool::run_batch) with the
    /// same limits applied to each scenario.
    ///
    /// # Errors
    ///
    /// I/O failure, a malformed stream, or a typed remote error.
    pub fn run_batch(
        &mut self,
        scripts: &[Vec<Vec<String>>],
        limits: BatchOptions,
    ) -> Result<Vec<WireOutcome>, WireError> {
        for script in scripts {
            self.submit(script.clone(), limits)?;
        }
        let mut outcomes = Vec::with_capacity(scripts.len());
        for _ in scripts {
            outcomes.push(self.recv()?.1);
        }
        Ok(outcomes)
    }

    /// Sends chart and action sources for the server to compile and
    /// blocks for the `Diagnostics` reply: the canonical span-sorted
    /// diagnostic list, plus the registered system's fingerprint when
    /// the compile succeeded (0 on failure). Outcomes and credits that
    /// arrive while waiting are folded into the client state, so a
    /// compile can be interleaved with in-flight scenarios.
    ///
    /// # Errors
    ///
    /// I/O failure, a malformed stream, or a typed remote error.
    /// Compile *failures* are not errors — they come back as
    /// diagnostics with a zero fingerprint.
    pub fn compile(
        &mut self,
        chart: &str,
        actions: &str,
    ) -> Result<(u64, Vec<pscp_diag::Diagnostic>), WireError> {
        self.send(&Frame::Compile { chart: chart.to_string(), actions: actions.to_string() })?;
        loop {
            match self.read_frame()? {
                Frame::Diagnostics { fingerprint, diagnostics } => {
                    return Ok((fingerprint, diagnostics));
                }
                other => self.absorb(other)?,
            }
        }
    }

    /// Scrapes the server's telemetry: serve-level gauges plus the full
    /// canonical metrics snapshot. The reply bypasses the credit
    /// window; outcomes and credits that arrive while waiting are
    /// folded into the client state, so a scrape can be interleaved
    /// with in-flight scenarios.
    ///
    /// # Errors
    ///
    /// I/O failure, a malformed stream, or a typed remote error (a
    /// server running with `PSCP_SERVE_STATS=off` answers
    /// `UNEXPECTED_FRAME`).
    pub fn stats(&mut self) -> Result<(ServeGauges, MetricsSnapshot), WireError> {
        self.send(&Frame::StatsRequest)?;
        loop {
            match self.read_frame()? {
                Frame::Stats { gauges, snapshot } => return Ok((gauges, snapshot)),
                other => self.absorb(other)?,
            }
        }
    }

    /// Requests a server-side state-space exploration and blocks for
    /// the complete report, reassembling the chunked `ExploreResult`
    /// sequence (ascending `seq`, `last` on the final chunk) and
    /// decoding the concatenated canonical bytes. The reply bypasses
    /// the credit window; outcomes and credits that arrive while
    /// waiting are folded into the client state, so an exploration can
    /// be interleaved with in-flight scenarios.
    ///
    /// # Errors
    ///
    /// I/O failure, a malformed stream, a chunk-sequence violation, or
    /// a typed remote error.
    pub fn explore(&mut self, req: &ExploreRequest) -> Result<ExploreReport, WireError> {
        self.send(&Frame::Explore(req.clone()))?;
        let mut bytes = Vec::new();
        let mut next_chunk = 0u32;
        loop {
            match self.read_frame()? {
                Frame::ExploreResult { seq, last, chunk } => {
                    if seq != next_chunk {
                        return Err(WireError::Protocol(format!(
                            "explore chunk {seq} out of order (expected {next_chunk})"
                        )));
                    }
                    next_chunk += 1;
                    bytes.extend_from_slice(&chunk);
                    if last {
                        return wire::decode_explore_report(&bytes);
                    }
                }
                other => self.absorb(other)?,
            }
        }
    }

    /// Reads one frame and folds it into the client state.
    fn pump(&mut self) -> Result<(), WireError> {
        let frame = self.read_frame()?;
        self.absorb(frame)
    }

    /// Folds a frame that is not the reply a call waits for into the
    /// client state: an outcome is buffered and a credit returns to the
    /// window. A remote error or any other frame ends the call.
    fn absorb(&mut self, frame: Frame) -> Result<(), WireError> {
        match frame {
            Frame::Outcome { seq, outcome } => {
                self.pending.insert(seq, outcome);
                Ok(())
            }
            Frame::Credit { n } => {
                self.credits = (self.credits + n).min(self.window);
                Ok(())
            }
            Frame::Error { code, message } => Err(WireError::Remote { code, message }),
            other => Err(WireError::Protocol(format!("unexpected frame from server: {other:?}"))),
        }
    }

    /// Blocking read of the next complete frame; buffered submissions
    /// are sent first, so the reply they may be waiting for can come.
    fn read_frame(&mut self) -> Result<Frame, WireError> {
        let mut chunk = [0u8; 16 * 1024];
        loop {
            if let Some(frame) = self.cursor.next_frame(self.max_frame)? {
                return Ok(frame);
            }
            self.flush()?;
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    return Err(if self.cursor.buffered() == 0 {
                        WireError::Closed
                    } else {
                        WireError::Truncated
                    });
                }
                Ok(n) => self.cursor.feed(&chunk[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(WireError::Io(e)),
            }
        }
    }

    /// Sends raw bytes down the connection, behind any buffered
    /// submissions — test hook for corrupt frame injection; not part of
    /// the protocol.
    #[doc(hidden)]
    pub fn send_raw(&mut self, bytes: &[u8]) -> Result<(), WireError> {
        self.outbox.extend_from_slice(bytes);
        self.flush()
    }

    /// Reads the next frame regardless of type — test hook for
    /// asserting on typed Error frames.
    #[doc(hidden)]
    pub fn recv_frame(&mut self) -> Result<Frame, WireError> {
        self.read_frame()
    }
}
