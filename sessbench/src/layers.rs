//! Timing wrappers around the program's layer boundaries, written
//! against its public traits so the program itself is not touched:
//!
//! * [`TracedService`] times `Service::handle` on the daemon threads;
//! * [`TracedProvider`] / [`TracedHost`] time every data-path call the
//!   services make into their `ProviderBackend` / `StorageBackend`
//!   (in-memory `ServiceProvider`/`StorageHost` or the durable stores)
//!   with [`Side::Store`], and, with [`Side::Client`], the RPCs that
//!   `SocialPuzzleApp` issues through `SpClient`/`DhClient`.
//!
//! Bookkeeping calls (`shard_loads`, `durability`, replication hooks) are
//! forwarded untimed, so their cost stays in the handler's self time.

use std::sync::Arc;

use bytes::Bytes;
use sp_net::{ErrorCode, Service};
use sp_osn::{
    DurabilityCounters, OsnError, PostId, ProviderApi, ProviderBackend, PuzzleId, ReplApplied,
    ShardLoad, StorageApi, StorageBackend, Url, UserId,
};

use crate::trace::{Endpoint, Kind, Tracer};

/// Which side of the wire a provider or host wrapper sits on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Side {
    /// Around a client: each call is one RPC round trip.
    Client,
    /// Around a daemon's store: each call is one backend call.
    Store,
}

/// Runs one forwarded call, timed as the RPC `rpc` on the client side
/// (untimed if the benchmark has no endpoint for it) or as a backend
/// call on the store side.
fn timed<R>(
    side: Side,
    tracer: &Tracer,
    rpc: Option<Endpoint>,
    mutates: bool,
    f: impl FnOnce() -> R,
) -> R {
    match (side, rpc) {
        (Side::Client, Some(e)) => tracer.span(Kind::Rpc(e), f),
        (Side::Client, None) => f(),
        (Side::Store, _) => tracer.span(Kind::Backend { mutates }, f),
    }
}

/// Times each request a daemon hands to the wrapped service.
pub struct TracedService {
    pub inner: Arc<dyn Service>,
    pub tracer: Arc<Tracer>,
}

impl Service for TracedService {
    fn handle(&self, request: &[u8]) -> Result<Vec<u8>, (ErrorCode, String)> {
        self.tracer.span(Kind::Handler, || self.inner.handle(request))
    }
}

/// A `ProviderApi`/`ProviderBackend` that times the calls it forwards.
pub struct TracedProvider<P> {
    pub inner: P,
    pub tracer: Arc<Tracer>,
    pub side: Side,
}

impl<P> TracedProvider<P> {
    fn timed<R>(&self, rpc: Option<Endpoint>, mutates: bool, f: impl FnOnce() -> R) -> R {
        timed(self.side, &self.tracer, rpc, mutates, f)
    }
}

impl<P: ProviderApi> ProviderApi for TracedProvider<P> {
    fn publish_puzzle(&self, record: Bytes) -> Result<PuzzleId, OsnError> {
        self.timed(Some(Endpoint::Upload), true, || self.inner.publish_puzzle(record))
    }

    fn fetch_puzzle(&self, id: PuzzleId) -> Result<Bytes, OsnError> {
        self.timed(Some(Endpoint::Fetch), false, || self.inner.fetch_puzzle(id))
    }

    fn replace_puzzle(&self, id: PuzzleId, record: Bytes) -> Result<(), OsnError> {
        self.timed(None, true, || self.inner.replace_puzzle(id, record))
    }

    fn delete_puzzle(&self, id: PuzzleId) -> Result<(), OsnError> {
        self.timed(None, true, || self.inner.delete_puzzle(id))
    }

    fn log_access(&self, user: UserId, puzzle: PuzzleId, granted: bool) -> Result<(), OsnError> {
        self.timed(Some(Endpoint::LogAccess), true, || self.inner.log_access(user, puzzle, granted))
    }

    fn post(&self, author: UserId, text: &str, puzzle: PuzzleId) -> Result<PostId, OsnError> {
        self.timed(None, true, || self.inner.post(author, text, puzzle))
    }
}

impl<P: ProviderBackend> ProviderBackend for TracedProvider<P> {
    fn log_access_batch(&self, entries: Vec<(UserId, PuzzleId, bool)>) -> Result<(), OsnError> {
        self.timed(None, true, || self.inner.log_access_batch(entries))
    }

    fn shard_loads(&self) -> Vec<ShardLoad> {
        self.inner.shard_loads()
    }

    fn durability(&self) -> Option<DurabilityCounters> {
        self.inner.durability()
    }

    fn publish_puzzle_at(&self, id: PuzzleId, record: Bytes) -> Result<(), OsnError> {
        self.timed(None, true, || self.inner.publish_puzzle_at(id, record))
    }

    fn repl_export(&self, after_seq: u64) -> Result<(u64, Vec<u8>), String> {
        self.inner.repl_export(after_seq)
    }

    fn repl_apply(&self, frames: &[u8]) -> Result<ReplApplied, String> {
        self.inner.repl_apply(frames)
    }

    fn repl_watermark(&self) -> u64 {
        self.inner.repl_watermark()
    }
}

/// A `StorageApi`/`StorageBackend` that times the calls it forwards.
pub struct TracedHost<S> {
    pub inner: S,
    pub tracer: Arc<Tracer>,
    pub side: Side,
}

impl<S> TracedHost<S> {
    fn timed<R>(&self, rpc: Option<Endpoint>, mutates: bool, f: impl FnOnce() -> R) -> R {
        timed(self.side, &self.tracer, rpc, mutates, f)
    }
}

impl<S: StorageApi> StorageApi for TracedHost<S> {
    fn reserve(&self) -> Result<Url, OsnError> {
        self.timed(Some(Endpoint::DhReserve), true, || self.inner.reserve())
    }

    fn put(&self, data: Bytes) -> Result<Url, OsnError> {
        self.timed(None, true, || self.inner.put(data))
    }

    fn fill(&self, url: &Url, data: Bytes) -> Result<(), OsnError> {
        self.timed(Some(Endpoint::DhFill), true, || self.inner.fill(url, data))
    }

    fn get(&self, url: &Url) -> Result<Bytes, OsnError> {
        self.timed(Some(Endpoint::DhGet), false, || self.inner.get(url))
    }

    fn delete(&self, url: &Url) -> Result<(), OsnError> {
        self.timed(None, true, || self.inner.delete(url))
    }
}

impl<S: StorageBackend> StorageBackend for TracedHost<S> {
    fn shard_loads(&self) -> Vec<ShardLoad> {
        self.inner.shard_loads()
    }

    fn durability(&self) -> Option<DurabilityCounters> {
        self.inner.durability()
    }
}
