//! `sketchclient`: blocking client for the `sketchd` wire protocol.
//!
//! One [`Client`] wraps one TCP connection; requests are written as frames
//! and the reply is read synchronously (the protocol answers in request
//! order per connection).

use crate::proto::{
    self, Frame, FrameReadError, FrameReader, HealthResp, LoadMatrixReq, LoadMatrixResp,
    MatrixSource, Op, SketchReq, SketchResult, SolveSapReq, SolveSapResp, Status,
};
use std::fmt;
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure (connect, read, write, timeout).
    Io(io::Error),
    /// The server's bytes would not frame or parse.
    Decode(proto::DecodeError),
    /// The server answered with a non-Ok status; `detail` is its message.
    Server {
        /// Response status.
        status: Status,
        /// Human-readable detail from the error frame payload.
        detail: String,
    },
    /// The reply violated the protocol (wrong op or req_id echo).
    Protocol(String),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io: {e}"),
            ClientError::Decode(e) => write!(f, "decode: {e}"),
            ClientError::Server { status, detail } => {
                write!(f, "server error ({}): {detail}", status.name())
            }
            ClientError::Protocol(d) => write!(f, "protocol violation: {d}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl ClientError {
    /// The server-reported status, if this is a server-side rejection.
    pub fn status(&self) -> Option<Status> {
        match self {
            ClientError::Server { status, .. } => Some(*status),
            _ => None,
        }
    }
}

/// A blocking connection to a `sketchd` server.
pub struct Client {
    stream: TcpStream,
    reader: FrameReader,
    next_id: u64,
}

impl Client {
    /// Connect with a timeout (also installed as the read/write timeout).
    pub fn connect(addr: SocketAddr, timeout: Duration) -> Result<Client, ClientError> {
        let stream = TcpStream::connect_timeout(&addr, timeout)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        stream.set_nodelay(true)?;
        Ok(Client {
            stream,
            reader: FrameReader::new(),
            next_id: 1,
        })
    }

    /// Read the next reply frame; transport/framing failures map to
    /// [`ClientError`]. A read timeout is a hard error here — the stream's
    /// timeout is the connect timeout, and the protocol always answers.
    fn read_reply(&mut self) -> Result<Frame, ClientError> {
        match self.reader.next_frame(&mut self.stream) {
            Ok(f) => Ok(f),
            Err(FrameReadError::TimedOut) => Err(ClientError::Io(io::Error::new(
                io::ErrorKind::TimedOut,
                "timed out waiting for reply",
            ))),
            Err(FrameReadError::Closed) => Err(ClientError::Io(io::Error::new(
                io::ErrorKind::ConnectionReset,
                "server closed the connection",
            ))),
            Err(FrameReadError::Io(e)) => Err(ClientError::Io(e)),
            Err(FrameReadError::Decode(e)) => Err(ClientError::Decode(e)),
        }
    }

    fn roundtrip(
        &mut self,
        op: Op,
        deadline_ms: u32,
        payload: Vec<u8>,
    ) -> Result<Frame, ClientError> {
        let id = self.next_id;
        self.next_id += 1;
        let req = Frame {
            op,
            status: Status::Ok,
            req_id: id,
            deadline_ms,
            payload,
        };
        proto::write_frame(&mut self.stream, &req)?;
        let resp = self.read_reply()?;
        if resp.req_id != id {
            return Err(ClientError::Protocol(format!(
                "reply req_id {} does not echo request {id}",
                resp.req_id
            )));
        }
        if resp.status != Status::Ok {
            return Err(ClientError::Server {
                status: resp.status,
                detail: String::from_utf8_lossy(&resp.payload).into_owned(),
            });
        }
        if resp.op != op {
            return Err(ClientError::Protocol(format!(
                "reply op {:?} does not match request {op:?}",
                resp.op
            )));
        }
        Ok(resp)
    }

    /// Install a server-generated uniform random matrix under `name`.
    pub fn load_generated(
        &mut self,
        name: &str,
        m: u64,
        n: u64,
        density: f64,
        seed: u64,
    ) -> Result<LoadMatrixResp, ClientError> {
        let req = LoadMatrixReq {
            name: name.to_string(),
            source: MatrixSource::Generate {
                m,
                n,
                density,
                seed,
            },
        };
        let resp = self.roundtrip(Op::LoadMatrix, 0, req.encode())?;
        LoadMatrixResp::decode(&resp.payload).map_err(ClientError::Decode)
    }

    /// Install explicit CSC parts under `name`.
    pub fn load_inline(
        &mut self,
        name: &str,
        nrows: u64,
        ncols: u64,
        col_ptr: Vec<u64>,
        row_idx: Vec<u64>,
        values: Vec<f64>,
    ) -> Result<LoadMatrixResp, ClientError> {
        let req = LoadMatrixReq {
            name: name.to_string(),
            source: MatrixSource::Inline {
                nrows,
                ncols,
                col_ptr,
                row_idx,
                values,
            },
        };
        let resp = self.roundtrip(Op::LoadMatrix, 0, req.encode())?;
        LoadMatrixResp::decode(&resp.payload).map_err(ClientError::Decode)
    }

    /// Sketch a registered matrix. `deadline_ms` of 0 means no deadline;
    /// `flags` are [`crate::proto::sketch_flags`] bits.
    #[allow(clippy::too_many_arguments)]
    pub fn sketch(
        &mut self,
        name: &str,
        d: u64,
        b_d: u64,
        b_n: u64,
        seed: u64,
        flags: u32,
        deadline_ms: u32,
    ) -> Result<SketchResult, ClientError> {
        let req = SketchReq {
            name: name.to_string(),
            d,
            b_d,
            b_n,
            seed,
            flags,
        };
        let resp = self.roundtrip(Op::Sketch, deadline_ms, req.encode())?;
        SketchResult::decode(&resp.payload).map_err(ClientError::Decode)
    }

    /// Pipelined sketches: all requests are written in one buffer (one
    /// syscall), then the replies — which the server answers in
    /// per-connection order, coalescing same-batch replies into one write —
    /// are read back. Returns one result per seed, in order. A transport
    /// failure aborts the whole pipeline; per-request server errors land in
    /// the corresponding slot.
    #[allow(clippy::too_many_arguments)]
    pub fn sketch_many(
        &mut self,
        name: &str,
        d: u64,
        b_d: u64,
        b_n: u64,
        seeds: &[u64],
        flags: u32,
        deadline_ms: u32,
    ) -> Result<Vec<Result<SketchResult, ClientError>>, ClientError> {
        use std::io::Write;
        let mut buf = Vec::new();
        let mut ids = Vec::with_capacity(seeds.len());
        for &seed in seeds {
            let id = self.next_id;
            self.next_id += 1;
            ids.push(id);
            let req = SketchReq {
                name: name.to_string(),
                d,
                b_d,
                b_n,
                seed,
                flags,
            };
            let frame = Frame {
                op: Op::Sketch,
                status: Status::Ok,
                req_id: id,
                deadline_ms,
                payload: req.encode(),
            };
            buf.extend_from_slice(&frame.encode());
        }
        self.stream.write_all(&buf)?;
        let mut out = Vec::with_capacity(ids.len());
        for id in ids {
            let resp = self.read_reply()?;
            if resp.req_id != id {
                return Err(ClientError::Protocol(format!(
                    "pipelined reply req_id {} does not echo request {id}",
                    resp.req_id
                )));
            }
            if resp.status != Status::Ok {
                out.push(Err(ClientError::Server {
                    status: resp.status,
                    detail: String::from_utf8_lossy(&resp.payload).into_owned(),
                }));
            } else {
                out.push(SketchResult::decode(&resp.payload).map_err(ClientError::Decode));
            }
        }
        Ok(out)
    }

    /// Sketch-and-precondition least squares against a registered matrix.
    pub fn solve_sap(
        &mut self,
        name: &str,
        gamma: u64,
        seed: u64,
        rhs: Vec<f64>,
        deadline_ms: u32,
    ) -> Result<SolveSapResp, ClientError> {
        let req = SolveSapReq {
            name: name.to_string(),
            gamma,
            seed,
            rhs,
        };
        let resp = self.roundtrip(Op::SolveSap, deadline_ms, req.encode())?;
        SolveSapResp::decode(&resp.payload).map_err(ClientError::Decode)
    }

    /// Liveness probe.
    pub fn health(&mut self) -> Result<HealthResp, ClientError> {
        let resp = self.roundtrip(Op::Health, 0, Vec::new())?;
        HealthResp::decode(&resp.payload).map_err(ClientError::Decode)
    }

    /// Server telemetry since startup, as a JSON string.
    pub fn stats(&mut self) -> Result<String, ClientError> {
        let resp = self.roundtrip(Op::Stats, 0, Vec::new())?;
        String::from_utf8(resp.payload)
            .map_err(|_| ClientError::Protocol("stats body is not UTF-8".into()))
    }

    /// Ask the server to shut down (acknowledged before it exits).
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        self.roundtrip(Op::Shutdown, 0, Vec::new())?;
        Ok(())
    }
}
