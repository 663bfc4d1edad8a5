//! The session workloads: corpus generation, daemon deployment, and the
//! checked session each one repeats.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use bytes::Bytes;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use social_puzzles_core::construction1::Construction1;
use social_puzzles_core::construction2::Construction2;
use social_puzzles_core::context::Context;
use social_puzzles_core::metrics::ServiceMetrics;
use social_puzzles_core::protocol::{ShareReport, SocialPuzzleApp};
use social_puzzles_core::SocialPuzzleError;
use sp_net::{
    ClientConfig, Daemon, DaemonConfig, DhClient, DhService, ErrorCode, NetError, Service,
    SpClient, SpService,
};
use sp_osn::{
    DeviceProfile, DurabilityCounters, ProviderApi, ProviderBackend, PuzzleId, ServiceProvider,
    StorageApi, StorageBackend, StorageHost, UserId,
};
use sp_store::{DurableHost, DurableProvider, StoreConfig};

use crate::host::Placement;
use crate::layers::{Side, TracedHost, TracedProvider, TracedService};
use crate::trace::{Endpoint, Kind, Step, Tracer};

/// Context pairs per puzzle (the paper's N).
const N: usize = 5;
/// Correct answers needed for access (the paper's k).
const K: usize = 2;
/// §VIII sizes: question, answer and object lengths.
const QUESTION_LEN: usize = 50;
const ANSWER_LEN: usize = 20;
const OBJECT_LEN: usize = 100;
/// One receiver in this many knows only `K - 1` answers and must be
/// denied.
const DENY_ONE_IN: u64 = 16;
/// On `mixed-receive`, one session in this many is a Construction-2
/// receive. A C2 receive costs ~30 C1 receives, so about half the time
/// goes to client-side CP-ABE and pairing work, while C2 sessions stay
/// few enough (3%) that p50 and p90 are C1 sessions. An all-C2 workload
/// was too unsteady to gate on a shared host (see README.md).
const C2_ONE_IN: u64 = 32;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    C1Receive,
    C1ShareDurable,
    MixedReceive,
}

impl Workload {
    pub const ALL: [Workload; 3] =
        [Workload::C1Receive, Workload::C1ShareDurable, Workload::MixedReceive];

    pub fn name(self) -> &'static str {
        match self {
            Workload::C1Receive => "c1-receive",
            Workload::C1ShareDurable => "c1-share-durable",
            Workload::MixedReceive => "mixed-receive",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Corpus sizes; `quick` shrinks them for the self-test.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    c1_puzzles: usize,
    c2_puzzles: usize,
    share_contexts: usize,
    durable_warmup: usize,
}

impl Sizes {
    pub fn new(quick: bool) -> Self {
        if quick {
            Self { c1_puzzles: 256, c2_puzzles: 8, share_contexts: 64, durable_warmup: 64 }
        } else {
            Self { c1_puzzles: 4096, c2_puzzles: 64, share_contexts: 256, durable_warmup: 512 }
        }
    }
}

/// An alphanumeric string of exactly `len` characters starting with
/// `prefix` (which keeps questions within a context distinct).
fn text(rng: &mut StdRng, prefix: &str, len: usize) -> String {
    const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 ";
    let mut s = String::with_capacity(len);
    s.push_str(prefix);
    while s.len() < len {
        s.push(ALPHABET[rng.gen_range(0..ALPHABET.len())] as char);
    }
    s
}

fn context(rng: &mut StdRng) -> Context {
    let mut b = Context::builder();
    for i in 0..N {
        let q = text(rng, &format!("Q{i} "), QUESTION_LEN);
        let a = text(rng, "", ANSWER_LEN);
        b = b.pair(q, a);
    }
    b.build().expect("distinct non-empty pairs")
}

fn object(rng: &mut StdRng) -> Vec<u8> {
    let mut o = vec![0u8; OBJECT_LEN];
    rng.fill(o.as_mut_slice());
    o
}

/// Zipf(s = 1) over `n` items, each rank mapped to a random item.
struct Zipf {
    cdf: Vec<f64>,
    item_of_rank: Vec<usize>,
}

impl Zipf {
    fn new(n: usize, rng: &mut StdRng) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|r| {
                acc += 1.0 / r as f64;
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        let mut item_of_rank: Vec<usize> = (0..n).collect();
        item_of_rank.shuffle(rng);
        Self { cdf, item_of_rank }
    }

    fn sample(&self, rng: &mut StdRng) -> usize {
        let u: f64 = rng.gen();
        let rank = self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1);
        self.item_of_rank[rank]
    }
}

/// The running SP and DH daemons of one setup.
pub struct Deployment {
    sp: Option<Daemon>,
    dh: Option<Daemon>,
    pub sp_metrics: ServiceMetrics,
    pub dh_metrics: ServiceMetrics,
    durability: Box<dyn Fn() -> [Option<DurabilityCounters>; 2] + Send>,
    pub data_dir: Option<PathBuf>,
}

impl Deployment {
    /// Durability counters of the SP and DH stores (`None` for
    /// in-memory backends).
    pub fn durability(&self) -> [Option<DurabilityCounters>; 2] {
        (self.durability)()
    }

    /// Stops both daemons (joining their threads) and removes the data
    /// directory.
    pub fn shutdown(mut self) {
        if let Some(d) = self.sp.take() {
            d.shutdown();
        }
        if let Some(d) = self.dh.take() {
            d.shutdown();
        }
        if let Some(dir) = &self.data_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }

    fn clients(&self) -> (SpClient, DhClient) {
        let sp = self.sp.as_ref().expect("running").addr();
        let dh = self.dh.as_ref().expect("running").addr();
        (
            SpClient::connect(sp, ClientConfig::default()),
            DhClient::connect(dh, ClientConfig::default()),
        )
    }
}

/// Boots both daemons with `DaemonConfig::default()` (serving-path
/// counters routed into each service's registry, as `spuzzle serve-sp`
/// does) on the daemon CPUs.
fn boot<P, S>(
    placement: &Placement,
    sp_backend: P,
    dh_backend: S,
    tracer: Option<&Arc<Tracer>>,
    data_dir: Option<PathBuf>,
) -> Deployment
where
    P: ProviderBackend + Send + Sync + 'static,
    S: StorageBackend + Send + Sync + 'static,
{
    placement.on_daemon_cpus(move || {
        let sp = Arc::new(SpService::new(sp_backend, Construction1::new()));
        let dh = Arc::new(DhService::new(dh_backend));
        let wrap = |svc: Arc<dyn Service>| -> Arc<dyn Service> {
            match tracer {
                Some(t) => Arc::new(TracedService { inner: svc, tracer: Arc::clone(t) }),
                None => svc,
            }
        };
        let spawn = |svc: Arc<dyn Service>, metrics: &ServiceMetrics| {
            let cfg = DaemonConfig { metrics: metrics.clone(), ..DaemonConfig::default() };
            Daemon::spawn("127.0.0.1:0", wrap(svc), cfg).expect("bind a loopback port")
        };
        let (sp_metrics, dh_metrics) = (sp.metrics(), dh.metrics());
        let sp_daemon = spawn(Arc::clone(&sp) as Arc<dyn Service>, &sp_metrics);
        let dh_daemon = spawn(Arc::clone(&dh) as Arc<dyn Service>, &dh_metrics);
        Deployment {
            sp: Some(sp_daemon),
            dh: Some(dh_daemon),
            sp_metrics,
            dh_metrics,
            durability: Box::new(move || [sp.provider().durability(), dh.store().durability()]),
            data_dir,
        }
    })
}

fn boot_memory(placement: &Placement, tracer: Option<&Arc<Tracer>>) -> Deployment {
    match tracer {
        None => boot(placement, ServiceProvider::new(), StorageHost::new(), None, None),
        Some(t) => boot(
            placement,
            TracedProvider {
                inner: ServiceProvider::new(),
                tracer: Arc::clone(t),
                side: Side::Store,
            },
            TracedHost { inner: StorageHost::new(), tracer: Arc::clone(t), side: Side::Store },
            tracer,
            None,
        ),
    }
}

fn boot_durable(placement: &Placement, tracer: Option<&Arc<Tracer>>, dir: &Path) -> Deployment {
    let _ = std::fs::remove_dir_all(dir);
    let sp = DurableProvider::open(dir.join("sp"), StoreConfig::default()).expect("open SP store");
    let dh = DurableHost::open(dir.join("dh"), StoreConfig::default()).expect("open DH store");
    let dir = Some(dir.to_path_buf());
    match tracer {
        None => boot(placement, sp, dh, None, dir),
        Some(t) => boot(
            placement,
            TracedProvider { inner: sp, tracer: Arc::clone(t), side: Side::Store },
            TracedHost { inner: dh, tracer: Arc::clone(t), side: Side::Store },
            tracer,
            dir,
        ),
    }
}

/// A published Construction-1 puzzle and what its sharer knows.
struct C1Item {
    id: PuzzleId,
    ctx: Context,
    object: Vec<u8>,
}

/// A published Construction-2 puzzle.
struct C2Item {
    share: ShareReport,
    ctx: Context,
    object: Vec<u8>,
}

enum Corpus {
    C1Receive {
        sp: SpClient,
        dh: DhClient,
        items: Vec<C1Item>,
        zipf: Zipf,
    },
    C1Share {
        sp: SpClient,
        dh: DhClient,
        inputs: Vec<(Context, Vec<u8>)>,
    },
    /// The `C1Receive` corpus plus a Construction-2 one; the clients are
    /// `app`'s, so the generator still holds one connection to each daemon.
    Mixed {
        app: Box<SocialPuzzleApp<TracedProvider<SpClient>, TracedHost<DhClient>>>,
        c1_items: Vec<C1Item>,
        c1_zipf: Zipf,
        c2: Construction2,
        c2_items: Vec<C2Item>,
        c2_zipf: Zipf,
    },
}

/// One setup: daemons, clients and published corpus, ready for sessions.
pub struct Rig {
    pub deployment: Deployment,
    corpus: Corpus,
    c1: Construction1,
    tracer: Arc<Tracer>,
    user_seq: u64,
    /// Sessions the SP correctly refused (`NotEnoughCorrectAnswers`):
    /// expected errors in the daemons' error counters.
    pub sp_denials: u64,
}

/// A session that did not end as the protocol requires.
pub type Failure = String;

impl Rig {
    /// Boots the deployment and publishes the corpus (the sharer side of
    /// setup); warm-up sessions are run separately by the caller.
    pub fn setup(
        workload: Workload,
        sizes: Sizes,
        seed: u64,
        placement: &Placement,
        tracer: Arc<Tracer>,
        traced: bool,
        data_dir: &Path,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ u64::from_be_bytes(*b"\0\0corpus"));
        let wrappers = traced.then_some(&tracer);
        let c1 = Construction1::new();
        let (deployment, corpus) = match workload {
            Workload::C1Receive => {
                let deployment = boot_memory(placement, wrappers);
                let (sp, dh) = deployment.clients();
                let (items, zipf) = publish_c1(&c1, &sp, &dh, sizes.c1_puzzles, &mut rng);
                (deployment, Corpus::C1Receive { sp, dh, items, zipf })
            }
            Workload::C1ShareDurable => {
                let deployment = boot_durable(placement, wrappers, data_dir);
                let (sp, dh) = deployment.clients();
                let inputs = (0..sizes.share_contexts)
                    .map(|_| (context(&mut rng), object(&mut rng)))
                    .collect();
                (deployment, Corpus::C1Share { sp, dh, inputs })
            }
            Workload::MixedReceive => {
                let deployment = boot_memory(placement, wrappers);
                let (sp, dh) = deployment.clients();
                let (c1_items, c1_zipf) = publish_c1(&c1, &sp, &dh, sizes.c1_puzzles, &mut rng);
                // The clients' RPCs get spans while the tracer is on; off,
                // each wrapper costs one relaxed load.
                let app = Box::new(SocialPuzzleApp::with_backends(
                    TracedProvider { inner: sp, tracer: Arc::clone(&tracer), side: Side::Client },
                    TracedHost { inner: dh, tracer: Arc::clone(&tracer), side: Side::Client },
                ));
                let c2 = Construction2::default_params();
                let device = DeviceProfile::pc();
                let sharer = UserId::from_raw(1);
                let c2_items = (0..sizes.c2_puzzles)
                    .map(|_| {
                        let ctx = context(&mut rng);
                        let object = object(&mut rng);
                        let share = app
                            .share_c2(&c2, sharer, &object, &ctx, K, &device, &mut rng)
                            .expect("publishing the corpus over loopback");
                        C2Item { share, ctx, object }
                    })
                    .collect();
                let c2_zipf = Zipf::new(sizes.c2_puzzles, &mut rng);
                let corpus = Corpus::Mixed { app, c1_items, c1_zipf, c2, c2_items, c2_zipf };
                (deployment, corpus)
            }
        };
        Self { deployment, corpus, c1, tracer, user_seq: 1000, sp_denials: 0 }
    }

    /// Closes the clients, then stops the daemons.
    pub fn shutdown(self) {
        drop(self.corpus);
        self.deployment.shutdown();
    }

    /// Warm-up: touches every published puzzle once (filling the SP's
    /// parsed-puzzle cache and the pairing line cache), or runs
    /// `durable_warmup` share sessions. Returns (attempted, failures).
    pub fn warm_up(&mut self, sizes: Sizes, rng: &mut StdRng) -> (u64, Vec<Failure>) {
        let n = match &self.corpus {
            Corpus::C1Receive { items, .. } => items.len(),
            Corpus::Mixed { c1_items, c2_items, .. } => c1_items.len() + c2_items.len(),
            Corpus::C1Share { .. } => sizes.durable_warmup,
        };
        let failures: Vec<Failure> =
            (0..n).filter_map(|i| self.session_on(Some(i), rng).err()).collect();
        (n as u64, failures)
    }

    /// One measured session on a popularity-drawn puzzle, checked.
    pub fn session(&mut self, rng: &mut StdRng) -> Result<(), Failure> {
        self.session_on(None, rng)
    }

    fn session_on(&mut self, pick: Option<usize>, rng: &mut StdRng) -> Result<(), Failure> {
        self.user_seq += 1;
        let user = UserId::from_raw(self.user_seq);
        let deny = rng.gen_range(0..DENY_ONE_IN) == 0;
        let tracer = Arc::clone(&self.tracer);
        let t = &*tracer;
        let c1 = &self.c1;
        // Construction 1 denies on the SP; Construction 2 on the client.
        let mut sp_denies = true;
        let result = t.span(Kind::Session, || match &mut self.corpus {
            Corpus::C1Receive { sp, dh, items, zipf } => {
                let item = &items[pick.unwrap_or_else(|| zipf.sample(rng))];
                receive_c1(t, c1, sp, dh, user, item.id, &item.ctx, &item.object, deny)
            }
            Corpus::C1Share { sp, dh, inputs } => {
                let (ctx, object) = &inputs[rng.gen_range(0..inputs.len())];
                let url = t
                    .span(Kind::Rpc(Endpoint::DhReserve), || dh.reserve())
                    .map_err(err("reserve"))?;
                let (encrypted, record) = t
                    .span(Kind::Client(Step::C1Upload), || {
                        c1.upload_to(object, ctx, K, url.clone(), None, rng)
                            .map(|u| (u.encrypted_object, u.puzzle.to_bytes()))
                    })
                    .map_err(err("upload_to"))?;
                t.span(Kind::Rpc(Endpoint::DhFill), || dh.fill(&url, Bytes::from(encrypted)))
                    .map_err(err("fill"))?;
                let id = t
                    .span(Kind::Rpc(Endpoint::Upload), || sp.publish_puzzle(Bytes::from(record)))
                    .map_err(err("upload"))?;
                receive_c1(t, c1, sp, dh, user, id, ctx, object, deny)
            }
            Corpus::Mixed { app, c1_items, c1_zipf, c2, c2_items, c2_zipf } => {
                // Warm-up `pick`s index the C1 items, then the C2 items.
                let c2_pick = match pick {
                    Some(i) => i.checked_sub(c1_items.len()),
                    None => (rng.gen_range(0..C2_ONE_IN) == 0).then(|| c2_zipf.sample(rng)),
                };
                if let Some(j) = c2_pick {
                    sp_denies = false;
                    return receive_c2(t, app, c2, user, &c2_items[j], deny, rng);
                }
                let item = &c1_items[pick.unwrap_or_else(|| c1_zipf.sample(rng))];
                let (sp, dh) = (&app.sp().inner, &app.dh().inner);
                receive_c1(t, c1, sp, dh, user, item.id, &item.ctx, &item.object, deny)
            }
        });
        if deny && sp_denies && result.is_ok() {
            self.sp_denials += 1;
        }
        result
    }
}

fn err<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> Failure {
    move |e| format!("{what}: {e}")
}

/// The receiver's knowledge: every answer, or (when `deny`) only the
/// first `K - 1` of the context's answers, with wrong guesses elsewhere.
fn answerer(ctx: &Context, deny: bool) -> impl Fn(&str) -> Option<String> + '_ {
    move |q| {
        let pos = ctx.pairs().iter().position(|p| p.question() == q)?;
        if deny && pos >= K - 1 {
            Some("a wrong guess".to_owned())
        } else {
            Some(ctx.pairs()[pos].answer().to_owned())
        }
    }
}

/// The sharer side over RPC: reserve a URL, build the puzzle, upload the
/// ciphertext, publish the puzzle.
fn share_c1(
    c1: &Construction1,
    sp: &SpClient,
    dh: &DhClient,
    ctx: &Context,
    object: &[u8],
    rng: &mut StdRng,
) -> Result<PuzzleId, Failure> {
    let url = dh.reserve().map_err(err("reserve"))?;
    let upload = c1.upload_to(object, ctx, K, url.clone(), None, rng).map_err(err("upload_to"))?;
    dh.fill(&url, Bytes::from(upload.encrypted_object)).map_err(err("fill"))?;
    sp.publish_puzzle(Bytes::from(upload.puzzle.to_bytes())).map_err(err("upload"))
}

/// The Construction-1 receiver: `DisplayPuzzle` → `AnswerPuzzle` →
/// `Verify` → DH `Get` → `Access`, with the outcome checked against what
/// the receiver should get.
#[allow(clippy::too_many_arguments)]
fn receive_c1(
    t: &Tracer,
    c1: &Construction1,
    sp: &SpClient,
    dh: &DhClient,
    user: UserId,
    id: PuzzleId,
    ctx: &Context,
    object: &[u8],
    deny: bool,
) -> Result<(), Failure> {
    let displayed =
        t.span(Kind::Rpc(Endpoint::Display), || sp.display_puzzle(id)).map_err(err("display"))?;
    let (answers, response) = t.span(Kind::Client(Step::C1Answer), || {
        let answers = displayed.answer(answerer(ctx, deny));
        let response = c1.answer_puzzle(&displayed, &answers);
        (answers, response)
    });
    let verdict = t.span(Kind::Rpc(Endpoint::Verify), || sp.verify(user, id, &response));
    let outcome = match (verdict, deny) {
        (Ok(outcome), false) => outcome,
        (Ok(_), true) => return Err("c1: granted with k-1 correct answers".into()),
        (Err(NetError::Remote { code: ErrorCode::NotEnoughCorrectAnswers, .. }), true) => {
            return Ok(())
        }
        (Err(e), _) => return Err(format!("verify: {e}")),
    };
    let blob = t.span(Kind::Rpc(Endpoint::DhGet), || dh.get(&outcome.url)).map_err(err("get"))?;
    let plain = t
        .span(Kind::Client(Step::C1Access), || {
            c1.access_with_key(&outcome, &answers, &blob, Some(&displayed.puzzle_key))
        })
        .map_err(err("access"))?;
    if plain == object {
        Ok(())
    } else {
        Err("c1: decrypted object differs from the shared one".into())
    }
}

/// Publishes `n` Construction-1 puzzles over RPC and draws their
/// popularity.
fn publish_c1(
    c1: &Construction1,
    sp: &SpClient,
    dh: &DhClient,
    n: usize,
    rng: &mut StdRng,
) -> (Vec<C1Item>, Zipf) {
    let items = (0..n)
        .map(|_| {
            let ctx = context(rng);
            let object = object(rng);
            let id = share_c1(c1, sp, dh, &ctx, &object, rng)
                .expect("publishing the corpus over loopback");
            C1Item { id, ctx, object }
        })
        .collect();
    (items, Zipf::new(n, rng))
}

/// The Construction-2 receiver: the program's own
/// `SocialPuzzleApp::receive_c2`, with the outcome checked. Its RPCs nest
/// in the client span, so that span's self time is the receiver's local
/// work (parse, answer, verify, `Access`).
fn receive_c2(
    t: &Tracer,
    app: &SocialPuzzleApp<TracedProvider<SpClient>, TracedHost<DhClient>>,
    c2: &Construction2,
    user: UserId,
    item: &C2Item,
    deny: bool,
    rng: &mut StdRng,
) -> Result<(), Failure> {
    let answerer = answerer(&item.ctx, deny);
    let result = t.span(Kind::Client(Step::C2Receive), || {
        app.receive_c2(c2, user, &item.share, answerer, &DeviceProfile::pc(), rng)
    });
    match (result, deny) {
        (Ok(r), false) if r.object == item.object => Ok(()),
        (Ok(_), false) => Err("c2: decrypted object differs from the shared one".into()),
        (Ok(_), true) => Err("c2: granted with k-1 correct answers".into()),
        (Err(SocialPuzzleError::NotEnoughCorrectAnswers), true) => Ok(()),
        (Err(e), _) => Err(format!("c2: {e}")),
    }
}
