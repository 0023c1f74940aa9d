//! [`NetClient`]: a blocking `MGW1` client for tests, tools and the load
//! harness.
//!
//! The client is deliberately simple — one socket, blocking reads, explicit
//! request-id bookkeeping. [`NetClient::query`] is the synchronous
//! round-trip; [`NetClient::send_query`] / [`NetClient::recv_answer`] expose
//! the pipelined form (many requests in flight, responses correlated by id)
//! that the load generator uses to produce closed- and open-loop load.

use crate::error::ServeError;
use crate::net::stats::ServerStatsReport;
use crate::net::wire::{
    decode_query_response_status, decode_serve_error, decode_stats_report, encode_frame,
    encode_query_request_opts, read_frame, Frame, FrameKind, WireError,
};
use crate::request::{QueryRequest, QueryResponse, ResponseStatus};
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

/// One pipelined answer as returned by [`NetClient::recv_answer_status`]:
/// the echoed request id paired with the server's verdict — a response
/// tagged with its [`ResponseStatus`], or a typed [`ServeError`].
pub type AnswerStatus = (u64, Result<(QueryResponse, ResponseStatus), ServeError>);

/// Client-side failures: transport/codec trouble, a typed server-side
/// rejection, or a protocol-order violation.
#[derive(Debug)]
pub enum NetError {
    /// The wire codec or the socket failed.
    Wire(WireError),
    /// The server answered with a typed [`ServeError`] frame (`Overloaded`,
    /// `Draining`, `BadRequest`, …).
    Serve(ServeError),
    /// The peer broke the protocol (unexpected frame kind or request id).
    Protocol(String),
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Wire(err) => write!(f, "wire error: {err}"),
            NetError::Serve(err) => write!(f, "server rejected the request: {err}"),
            NetError::Protocol(msg) => write!(f, "protocol violation: {msg}"),
        }
    }
}

impl std::error::Error for NetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NetError::Wire(err) => Some(err),
            NetError::Serve(err) => Some(err),
            NetError::Protocol(_) => None,
        }
    }
}

impl From<WireError> for NetError {
    fn from(err: WireError) -> Self {
        NetError::Wire(err)
    }
}

impl From<std::io::Error> for NetError {
    fn from(err: std::io::Error) -> Self {
        NetError::Wire(err.into())
    }
}

impl NetError {
    /// Whether a failover client may retry this failure against another
    /// replica. Only a typed, non-retryable server rejection is final:
    /// transport trouble (timeouts, resets, truncated or corrupted frames)
    /// and protocol violations say nothing about the request itself, and
    /// queries are idempotent reads — retrying them elsewhere is always
    /// safe. Delegates to [`ServeError::is_retryable`] for typed
    /// rejections.
    pub fn is_retryable(&self) -> bool {
        match self {
            NetError::Serve(err) => err.is_retryable(),
            NetError::Wire(_) | NetError::Protocol(_) => true,
        }
    }
}

/// Bytes a client pulls from its socket per `read`: answers that arrived
/// together are decoded from one `read`.
const READ_BUFFER: usize = 16 * 1024;

/// A blocking connection to a [`NetServer`](crate::net::NetServer).
#[derive(Debug)]
pub struct NetClient {
    stream: TcpStream,
    /// Buffered read half, over a clone of `stream`.
    reader: BufReader<TcpStream>,
    next_id: u64,
}

impl NetClient {
    /// Connect to a serving address.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<NetClient> {
        NetClient::over(TcpStream::connect(addr)?)
    }

    fn over(stream: TcpStream) -> std::io::Result<NetClient> {
        let _ = stream.set_nodelay(true);
        Ok(NetClient {
            reader: BufReader::with_capacity(READ_BUFFER, stream.try_clone()?),
            stream,
            next_id: 1,
        })
    }

    /// Connect to a serving address, bounding the TCP handshake itself.
    /// A replica that is down-but-not-refusing (dropped SYNs, a dead NAT
    /// entry) fails within `timeout` instead of the OS connect timeout.
    pub fn connect_timeout(addr: &SocketAddr, timeout: Duration) -> std::io::Result<NetClient> {
        NetClient::over(TcpStream::connect_timeout(addr, timeout)?)
    }

    /// Bound every subsequent read. A read past the deadline surfaces as
    /// [`WireError::TimedOut`] (retryable), so a stalled server fails the
    /// request instead of hanging the caller. `None` (the initial state)
    /// blocks without bound.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        self.stream.set_read_timeout(timeout)
    }

    /// Bound every subsequent write — the mirror of
    /// [`NetClient::set_read_timeout`] for a peer that stops reading while
    /// the socket's send buffer is full.
    pub fn set_write_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        self.stream.set_write_timeout(timeout)
    }

    /// Clone the underlying socket into a second handle — the pipelined
    /// pattern: one thread `send_query`s on the original while another
    /// `recv_answer`s on the clone.
    ///
    /// Reads are buffered per handle, and the clone starts with an empty
    /// read buffer: bytes the original has already pulled off the socket
    /// stay with the original. Receive on one handle only — the clone, in
    /// the pattern above.
    pub fn try_clone(&self) -> std::io::Result<NetClient> {
        Ok(NetClient {
            next_id: self.next_id,
            ..NetClient::over(self.stream.try_clone()?)?
        })
    }

    fn send_frame(&mut self, kind: FrameKind, payload: &[u8]) -> Result<u64, NetError> {
        let id = self.next_id;
        self.next_id += 1;
        let frame = encode_frame(kind, id, payload)?;
        self.stream.write_all(&frame).map_err(WireError::from)?;
        Ok(id)
    }

    /// Send one query without waiting; returns the request id its answer
    /// will carry.
    pub fn send_query(&mut self, request: &QueryRequest) -> Result<u64, NetError> {
        self.send_query_opts(request, false)
    }

    /// [`NetClient::send_query`] with the `require_complete` flag: a server
    /// that would answer degraded (shards missing from the scatter-gather)
    /// must instead reject the request with a typed
    /// [`ServeError::Incomplete`].
    pub fn send_query_opts(
        &mut self,
        request: &QueryRequest,
        require_complete: bool,
    ) -> Result<u64, NetError> {
        let mut payload = Vec::new();
        encode_query_request_opts(request, require_complete, &mut payload);
        self.send_frame(FrameKind::Query, &payload)
    }

    /// Read the next response frame: `(request id, answer-or-typed-error)`.
    ///
    /// Only `Answer` and `Error` frames are expected here; anything else is
    /// a [`NetError::Protocol`]. A cleanly closed stream surfaces as
    /// [`WireError::Truncated`]-flavored `Protocol` ("server closed").
    pub fn recv_answer(&mut self) -> Result<(u64, Result<QueryResponse, ServeError>), NetError> {
        self.recv_answer_status()
            .map(|(id, answer)| (id, answer.map(|(response, _)| response)))
    }

    /// [`NetClient::recv_answer`], keeping the [`ResponseStatus`] that tags
    /// degraded scatter-gather answers.
    pub fn recv_answer_status(&mut self) -> Result<AnswerStatus, NetError> {
        let frame = self.read_some_frame()?;
        match frame.kind {
            FrameKind::Answer => {
                let decoded = decode_query_response_status(&frame.payload)?;
                Ok((frame.request_id, Ok(decoded)))
            }
            FrameKind::Error => {
                let error = decode_serve_error(&frame.payload)?;
                Ok((frame.request_id, Err(error)))
            }
            other => Err(NetError::Protocol(format!(
                "expected an answer or error frame, got {other:?}"
            ))),
        }
    }

    fn read_some_frame(&mut self) -> Result<Frame, NetError> {
        match read_frame(&mut self.reader)? {
            Some(frame) => Ok(frame),
            None => Err(NetError::Protocol(
                "server closed the connection before answering".into(),
            )),
        }
    }

    /// Synchronous round-trip: send one query, wait for its answer. A typed
    /// server-side rejection becomes [`NetError::Serve`].
    pub fn query(&mut self, request: &QueryRequest) -> Result<QueryResponse, NetError> {
        self.query_status(request, false)
            .map(|(response, _)| response)
    }

    /// Synchronous round-trip keeping the [`ResponseStatus`]: the degraded
    /// tag of a partial scatter-gather answer, and the `require_complete`
    /// flag demanding the server fail typed instead of degrading.
    pub fn query_status(
        &mut self,
        request: &QueryRequest,
        require_complete: bool,
    ) -> Result<(QueryResponse, ResponseStatus), NetError> {
        let sent = self.send_query_opts(request, require_complete)?;
        let (got, answer) = self.recv_answer_status()?;
        if got != sent {
            return Err(NetError::Protocol(format!(
                "answer carries request id {got}, expected {sent} \
                 (mixing `query` with pipelined sends on one connection?)"
            )));
        }
        answer.map_err(NetError::Serve)
    }

    /// Fetch the server's statistics snapshot.
    pub fn stats(&mut self) -> Result<ServerStatsReport, NetError> {
        let reply = self.control(FrameKind::Stats, FrameKind::StatsReport, "a stats report")?;
        Ok(decode_stats_report(&reply.payload)?)
    }

    /// Ask the server to drain gracefully; returns once the drain is
    /// acknowledged (admitted work still completes server-side after this).
    pub fn drain_server(&mut self) -> Result<(), NetError> {
        let ack = "a drain acknowledgement";
        self.control(FrameKind::Drain, FrameKind::DrainStarted, ack)
            .map(drop)
    }

    /// Send a control frame of `kind` and read its reply, of kind `reply`
    /// (`what`, for the protocol error) or a typed error.
    fn control(
        &mut self,
        kind: FrameKind,
        reply: FrameKind,
        what: &str,
    ) -> Result<Frame, NetError> {
        let sent = self.send_frame(kind, &[])?;
        let frame = self.read_some_frame()?;
        match frame.kind {
            got if got == reply && frame.request_id == sent => Ok(frame),
            FrameKind::Error => Err(NetError::Serve(decode_serve_error(&frame.payload)?)),
            other => Err(NetError::Protocol(format!(
                "expected {what}, got {other:?}"
            ))),
        }
    }
}
