//! The three comparison systems of §VIII-C.

use lumos_common::rng::Xoshiro256pp;
use lumos_core::config::TaskKind;
use lumos_core::report::RunReport;
use lumos_data::{Dataset, EdgeSplit, NodeSplit};
use lumos_gnn::Backbone;
use lumos_graph::Graph;
use lumos_ldp::{GaussianMechanism, MultiBitMechanism, RandomizedResponse};

use crate::common::{features_tensor, train_plain, PlainRun};

/// Common run parameters for the baselines.
#[derive(Debug, Clone)]
pub struct BaselineConfig {
    /// Backbone architecture.
    pub backbone: Backbone,
    /// Task.
    pub task: TaskKind,
    /// Training epochs.
    pub epochs: usize,
    /// Adam learning rate (0.01 in the paper).
    pub lr: f32,
    /// Seed.
    pub seed: u64,
    /// Evaluate every this many epochs (and always at the final epoch);
    /// 0 evaluates at the final epoch only.
    pub eval_every: usize,
}

impl BaselineConfig {
    /// Paper defaults (unsupervised runs use the reduced learning rate; see
    /// `LumosConfig::new` for the rationale).
    pub fn new(backbone: Backbone, task: TaskKind) -> Self {
        Self {
            backbone,
            task,
            epochs: 80,
            lr: match task {
                TaskKind::Supervised => 0.01,
                TaskKind::Unsupervised => 0.003,
            },
            seed: 0xBA5E,
            eval_every: 10,
        }
    }

    /// Builder-style: set epochs.
    pub fn with_epochs(mut self, epochs: usize) -> Self {
        self.epochs = epochs;
        self
    }

    /// Builder-style: set seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

fn make_splits(
    ds: &Dataset,
    task: TaskKind,
    rng: &mut Xoshiro256pp,
) -> (Option<NodeSplit>, Option<EdgeSplit>, Vec<(u32, u32)>) {
    match task {
        TaskKind::Supervised => {
            let split = NodeSplit::uniform(ds.num_nodes(), rng);
            let edges: Vec<(u32, u32)> = ds.graph.edges().collect();
            (Some(split), None, edges)
        }
        TaskKind::Unsupervised => {
            let split = EdgeSplit::uniform(&ds.graph, rng);
            let edges = split.train_edges.clone();
            (None, Some(split), edges)
        }
    }
}

/// Centralized GNN: the server sees the true graph, raw features and labels
/// (the paper's upper reference).
pub fn run_centralized(ds: &Dataset, cfg: &BaselineConfig) -> RunReport {
    let mut rng = Xoshiro256pp::seed_from_u64(cfg.seed);
    let (node_split, edge_split, edges) = make_splits(ds, cfg.task, &mut rng);
    train_plain(PlainRun {
        system: "centralized",
        dataset: &ds.name,
        backbone: cfg.backbone,
        task: cfg.task,
        message_edges: edges,
        features: features_tensor(&ds.features, ds.num_nodes(), ds.feature_dim),
        train_labels: ds.labels.clone(),
        true_labels: &ds.labels,
        num_classes: ds.num_classes,
        node_split,
        edge_split,
        true_graph: &ds.graph,
        epochs: cfg.epochs,
        lr: cfg.lr,
        seed: cfg.seed,
        eval_every: cfg.eval_every,
    })
}

/// LPGNN configuration knobs (the paper sets ε_x = 2, ε_y = 1).
#[derive(Debug, Clone, Copy)]
pub struct LpgnnParams {
    /// Feature budget ε_x.
    pub epsilon_x: f64,
    /// Label budget ε_y.
    pub epsilon_y: f64,
    /// Dimensions sampled by the multi-bit mechanism.
    pub sampled_dims: usize,
    /// KProp-style feature-propagation steps applied before training.
    pub kprop_steps: usize,
    /// Label-KProp steps: noisy training labels are replaced by the mode of
    /// the noisy labels in the closed neighborhood (LPGNN's Drop-style label
    /// correction).
    pub label_kprop_steps: usize,
}

impl Default for LpgnnParams {
    fn default() -> Self {
        Self {
            epsilon_x: 2.0,
            epsilon_y: 1.0,
            sampled_dims: 16,
            kprop_steps: 2,
            label_kprop_steps: 1,
        }
    }
}

/// LPGNN-like system: the server knows the graph structure; features arrive
/// under the multi-bit mechanism (ε_x) and training labels under randomized
/// response (ε_y). A KProp-style neighborhood averaging denoises features
/// before training, as in the original system. Supervised only, matching
/// the paper's comparison.
pub fn run_lpgnn(ds: &Dataset, cfg: &BaselineConfig, params: &LpgnnParams) -> RunReport {
    assert_eq!(
        cfg.task,
        TaskKind::Supervised,
        "LPGNN is evaluated in supervised settings only (§VIII-C)"
    );
    let mut rng = Xoshiro256pp::seed_from_u64(cfg.seed ^ 0x17C0);
    let n = ds.num_nodes();
    let d = ds.feature_dim;

    // Feature privatization (multi-bit, ε_x).
    let mech = MultiBitMechanism::new(
        params.epsilon_x,
        d,
        params.sampled_dims.min(d).max(1),
        0.0,
        1.0,
    );
    let mut noisy = vec![0.0f32; n * d];
    for v in 0..n {
        let row = mech.privatize(&ds.features[v * d..(v + 1) * d], &mut rng);
        noisy[v * d..(v + 1) * d].copy_from_slice(&row);
    }
    // KProp denoising: average over neighborhoods (the server knows the
    // structure).
    for _ in 0..params.kprop_steps {
        noisy = kprop_once(&ds.graph, &noisy, d);
    }

    // Label privatization (k-ary randomized response, ε_y) followed by
    // Drop-style label correction: majority vote over the closed
    // neighborhood's noisy labels, repeated.
    let rr = RandomizedResponse::new(params.epsilon_y, ds.num_classes.max(2));
    let mut noisy_labels: Vec<u32> = ds
        .labels
        .iter()
        .map(|&y| rr.privatize(y, &mut rng))
        .collect();
    for _ in 0..params.label_kprop_steps {
        noisy_labels = label_mode_smooth(&ds.graph, &noisy_labels, ds.num_classes);
    }

    let mut seed_rng = Xoshiro256pp::seed_from_u64(cfg.seed);
    let (node_split, edge_split, edges) = make_splits(ds, cfg.task, &mut seed_rng);
    train_plain(PlainRun {
        system: "lpgnn",
        dataset: &ds.name,
        backbone: cfg.backbone,
        task: cfg.task,
        message_edges: edges,
        features: features_tensor(&noisy, n, d),
        train_labels: noisy_labels,
        true_labels: &ds.labels,
        num_classes: ds.num_classes,
        node_split,
        edge_split,
        true_graph: &ds.graph,
        epochs: cfg.epochs,
        lr: cfg.lr,
        seed: cfg.seed,
        eval_every: cfg.eval_every,
    })
}

/// One step of majority-vote label smoothing over closed neighborhoods.
fn label_mode_smooth(g: &Graph, labels: &[u32], num_classes: usize) -> Vec<u32> {
    let mut out = Vec::with_capacity(labels.len());
    let mut counts = vec![0u32; num_classes];
    for v in 0..g.num_nodes() as u32 {
        counts.iter_mut().for_each(|c| *c = 0);
        counts[labels[v as usize] as usize] += 1;
        for &u in g.neighbors(v) {
            counts[labels[u as usize] as usize] += 1;
        }
        let best = counts
            .iter()
            .enumerate()
            .max_by_key(|&(_, c)| *c)
            .map(|(i, _)| i as u32)
            .unwrap_or(labels[v as usize]);
        out.push(best);
    }
    out
}

fn kprop_once(g: &Graph, features: &[f32], d: usize) -> Vec<f32> {
    let n = g.num_nodes();
    let mut out = vec![0.0f32; n * d];
    for v in 0..n as u32 {
        let nb = g.neighbors(v);
        let dst = &mut out[v as usize * d..(v as usize + 1) * d];
        // Include self to keep isolated vertices defined.
        dst.copy_from_slice(&features[v as usize * d..(v as usize + 1) * d]);
        for &u in nb {
            for (o, &x) in dst
                .iter_mut()
                .zip(&features[u as usize * d..(u as usize + 1) * d])
            {
                *o += x;
            }
        }
        let scale = 1.0 / (nb.len() + 1) as f32;
        for o in dst.iter_mut() {
            *o *= scale;
        }
    }
    out
}

/// Naive FedGNN parameters.
#[derive(Debug, Clone, Copy)]
pub struct NaiveFedParams {
    /// Gaussian feature budget ε (with δ = 1e-5, sensitivity 1).
    pub feature_epsilon: f64,
    /// Label randomized-response budget.
    pub label_epsilon: f64,
    /// Adjacency randomized-response budget: each of the `n·(n−1)/2`
    /// potential edges flips with probability `1/(e^ε + 1)`. On sparse
    /// graphs this buries the topology under noise — exactly why the naive
    /// system collapses in the paper.
    pub adjacency_epsilon: f64,
    /// Tractability cap on spurious edges, as a multiple of `|E|` (the
    /// exact RR expectation is quadratic in `n`; see DESIGN.md).
    pub max_noise_ratio: f64,
}

impl Default for NaiveFedParams {
    fn default() -> Self {
        Self {
            feature_epsilon: 2.0,
            label_epsilon: 1.0,
            adjacency_epsilon: 1.0,
            max_noise_ratio: 40.0,
        }
    }
}

/// Naive FedGNN: devices upload Gaussian-noised features, randomized-
/// response-noised adjacency rows, and RR-noised labels; the server trains
/// on the noised graph. The paper's lower reference — federation done
/// naively destroys both structure and features.
pub fn run_naive_fedgnn(ds: &Dataset, cfg: &BaselineConfig, params: &NaiveFedParams) -> RunReport {
    let mut rng = Xoshiro256pp::seed_from_u64(cfg.seed ^ 0xFED6);
    let n = ds.num_nodes();
    let d = ds.feature_dim;

    // Features: Gaussian mechanism.
    let gauss = GaussianMechanism::calibrated(params.feature_epsilon, 1e-5, 1.0);
    let mut noisy = vec![0.0f32; n * d];
    for v in 0..n {
        let row = gauss.privatize(&ds.features[v * d..(v + 1) * d], &mut rng);
        noisy[v * d..(v + 1) * d].copy_from_slice(&row);
    }

    // Labels: randomized response.
    let rr = RandomizedResponse::new(params.label_epsilon, ds.num_classes.max(2));
    let noisy_labels: Vec<u32> = ds
        .labels
        .iter()
        .map(|&y| rr.privatize(y, &mut rng))
        .collect();

    // Splits are taken on the true graph (evaluation must be against the
    // truth); the *message* structure the server sees is the noised version
    // of what devices upload.
    let mut seed_rng = Xoshiro256pp::seed_from_u64(cfg.seed);
    let (node_split, edge_split, base_edges) = make_splits(ds, cfg.task, &mut seed_rng);
    let message_edges = noise_adjacency(n, &base_edges, params, &mut rng);

    train_plain(PlainRun {
        system: "naive-fedgnn",
        dataset: &ds.name,
        backbone: cfg.backbone,
        task: cfg.task,
        message_edges,
        features: features_tensor(&noisy, n, d),
        train_labels: noisy_labels,
        true_labels: &ds.labels,
        num_classes: ds.num_classes,
        node_split,
        edge_split,
        true_graph: &ds.graph,
        epochs: cfg.epochs,
        lr: cfg.lr,
        seed: cfg.seed,
        eval_every: cfg.eval_every,
    })
}

/// Randomized response over the adjacency matrix: true edges survive with
/// the RR keep probability; every non-edge turns on with the flip
/// probability `1/(e^ε + 1)`. The spurious edges are drawn by expected
/// count rather than per-pair coin flips (identical distribution shape,
/// tractable at paper scale), capped at `max_noise_ratio × |E|`.
fn noise_adjacency(
    n: usize,
    edges: &[(u32, u32)],
    params: &NaiveFedParams,
    rng: &mut Xoshiro256pp,
) -> Vec<(u32, u32)> {
    let rr = RandomizedResponse::new(params.adjacency_epsilon, 2);
    let keep = rr.keep_prob();
    let flip = 1.0 - keep;
    let mut out: Vec<(u32, u32)> = edges
        .iter()
        .copied()
        .filter(|_| rng.bernoulli(keep))
        .collect();
    let pairs = n as f64 * (n as f64 - 1.0) / 2.0;
    let non_edges = (pairs - edges.len() as f64).max(0.0);
    let expected = flip * non_edges;
    let cap = params.max_noise_ratio * edges.len() as f64;
    let spurious = expected.min(cap).round() as usize;
    let mut added = 0usize;
    let mut guard = 0usize;
    while added < spurious && guard < 20 * spurious + 100 {
        guard += 1;
        let u = rng.next_below(n as u64) as u32;
        let v = rng.next_below(n as u64) as u32;
        if u != v {
            out.push((u.min(v), u.max(v)));
            added += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use lumos_data::Scale;

    fn cfg(task: TaskKind) -> BaselineConfig {
        BaselineConfig::new(Backbone::Gcn, task)
            .with_epochs(60)
            .with_seed(11)
    }

    #[test]
    fn centralized_supervised_is_strong() {
        let ds = Dataset::facebook_like(Scale::Smoke);
        let r = run_centralized(&ds, &cfg(TaskKind::Supervised));
        assert!(
            r.test_metric > 0.75,
            "centralized accuracy {}",
            r.test_metric
        );
        assert_eq!(r.system, "centralized");
    }

    #[test]
    fn zero_eval_every_evaluates_at_the_final_epoch_only() {
        // Regression: `eval_every = 0` used to panic with a remainder by
        // zero on the first epoch.
        let ds = Dataset::facebook_like(Scale::Smoke);
        let mut c = cfg(TaskKind::Supervised).with_epochs(3);
        c.eval_every = 0;
        let r = run_centralized(&ds, &c);
        let epochs: Vec<usize> = r.history.iter().map(|m| m.epoch).collect();
        assert_eq!(epochs, vec![2]);
    }

    #[test]
    fn centralized_unsupervised_is_strong() {
        let ds = Dataset::lastfm_like(Scale::Smoke);
        let r = run_centralized(&ds, &cfg(TaskKind::Unsupervised).with_epochs(150));
        assert!(r.test_metric > 0.75, "centralized AUC {}", r.test_metric);
    }

    #[test]
    fn lpgnn_between_random_and_centralized() {
        let ds = Dataset::facebook_like(Scale::Smoke);
        let lp = run_lpgnn(&ds, &cfg(TaskKind::Supervised), &LpgnnParams::default());
        let central = run_centralized(&ds, &cfg(TaskKind::Supervised));
        assert!(lp.test_metric > 0.3, "LPGNN accuracy {}", lp.test_metric);
        assert!(
            lp.test_metric <= central.test_metric + 0.05,
            "LPGNN {} should not beat centralized {}",
            lp.test_metric,
            central.test_metric
        );
    }

    #[test]
    fn naive_fedgnn_collapses() {
        let ds = Dataset::facebook_like(Scale::Smoke);
        let naive = run_naive_fedgnn(&ds, &cfg(TaskKind::Supervised), &NaiveFedParams::default());
        let central = run_centralized(&ds, &cfg(TaskKind::Supervised));
        assert!(
            naive.test_metric < central.test_metric - 0.2,
            "naive {} must collapse vs centralized {}",
            naive.test_metric,
            central.test_metric
        );
    }

    #[test]
    #[should_panic]
    fn lpgnn_rejects_unsupervised() {
        let ds = Dataset::facebook_like(Scale::Smoke);
        let _ = run_lpgnn(&ds, &cfg(TaskKind::Unsupervised), &LpgnnParams::default());
    }

    #[test]
    fn noised_adjacency_buries_the_topology() {
        let mut rng = Xoshiro256pp::seed_from_u64(5);
        let edges: Vec<(u32, u32)> = (0..100).map(|i| (i as u32, (i + 1) as u32)).collect();
        let params = NaiveFedParams::default();
        let noised = noise_adjacency(200, &edges, &params, &mut rng);
        // RR at ε=1 flips ~26.9% of the ~19,800 non-edges: ~5,330 spurious,
        // capped at 40 × 100 = 4,000. True edges: ~73 survive.
        assert!(
            noised.len() > 3_500,
            "noise must dominate: {} edges",
            noised.len()
        );
        assert!(noised.len() < 4_200, "cap must bind: {}", noised.len());
    }
}
