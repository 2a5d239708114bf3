//! Shared training loop for the comparison systems (§VIII-C).
//!
//! All three baselines — centralized GNN, LPGNN, naive FedGNN — train the
//! same 2-layer encoder directly on a plain graph (no trees); they differ
//! only in which *inputs* they see: raw vs privatized features, true vs
//! noised structure and labels.

use std::rc::Rc;

use lumos_common::rng::Xoshiro256pp;
use lumos_common::timer::Stopwatch;
use lumos_core::config::TaskKind;
use lumos_core::report::{EpochMetrics, RunReport};
use lumos_data::{sample_non_edges, EdgeSplit, NodeSplit};
use lumos_gnn::{
    accuracy_masked, cross_entropy_masked, link_logits, link_prediction_loss, roc_auc, Backbone,
    EncoderConfig, GnnEncoder, LinearDecoder, MessageGraph,
};
use lumos_graph::Graph;
use lumos_tensor::{Adam, ParamStore, Tape, Tensor, VarId};

/// Inputs of a plain-graph training run.
pub struct PlainRun<'a> {
    /// System name for the report.
    pub system: &'a str,
    /// Dataset name for the report.
    pub dataset: &'a str,
    /// Backbone architecture.
    pub backbone: Backbone,
    /// Task kind.
    pub task: TaskKind,
    /// Edges the model trains its message passing on (possibly noised; for
    /// unsupervised tasks these are the train-split edges).
    pub message_edges: Vec<(u32, u32)>,
    /// Node features the model sees (possibly privatized), row-major `[n,d]`.
    pub features: Tensor,
    /// Labels used for the training loss (possibly privatized).
    pub train_labels: Vec<u32>,
    /// Ground-truth labels for evaluation.
    pub true_labels: &'a [u32],
    /// Number of classes.
    pub num_classes: usize,
    /// Node split (supervised).
    pub node_split: Option<NodeSplit>,
    /// Edge split over the *true* graph (unsupervised).
    pub edge_split: Option<EdgeSplit>,
    /// The true graph (negative sampling and evaluation).
    pub true_graph: &'a Graph,
    /// Training epochs.
    pub epochs: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Seed.
    pub seed: u64,
    /// Evaluate every this many epochs (and always at the final epoch);
    /// 0 evaluates at the final epoch only.
    pub eval_every: usize,
}

/// Trains on the plain graph and reports metrics against the ground truth.
pub fn train_plain(run: PlainRun<'_>) -> RunReport {
    let n = run.true_graph.num_nodes();
    let mut rng = Xoshiro256pp::seed_from_u64(run.seed);
    let mg = MessageGraph::from_undirected(n, &run.message_edges);

    let mut store = ParamStore::new();
    let enc_cfg = EncoderConfig::paper(run.backbone, run.features.cols());
    let encoder = GnnEncoder::new(&mut store, &enc_cfg, &mut rng);
    let decoder = match run.task {
        TaskKind::Supervised => Some(LinearDecoder::new(
            &mut store,
            "head",
            encoder.out_dim(),
            run.num_classes,
            &mut rng,
        )),
        TaskKind::Unsupervised => None,
    };
    let mut opt = Adam::new(run.lr);

    let mut report = RunReport::new(
        run.system,
        run.dataset,
        run.backbone.name(),
        run.task.name(),
    );
    let targets = Rc::new(run.train_labels.clone());
    let train_mask: Option<Rc<Vec<f32>>> = run.node_split.as_ref().map(|s| {
        Rc::new(
            s.train_mask
                .iter()
                .map(|&b| if b { 1.0 } else { 0.0 })
                .collect::<Vec<f32>>(),
        )
    });
    type PairLists = (Rc<Vec<u32>>, Rc<Vec<u32>>);
    let pos_pairs: Option<PairLists> = run.edge_split.as_ref().map(|s| {
        (
            Rc::new(s.train_edges.iter().map(|&(u, _)| u).collect::<Vec<u32>>()),
            Rc::new(s.train_edges.iter().map(|&(_, v)| v).collect::<Vec<u32>>()),
        )
    });

    let forward =
        |tape: &mut Tape, store: &ParamStore, training: bool, rng: &mut Xoshiro256pp| -> VarId {
            let x = tape.constant(run.features.clone());
            encoder.forward(tape, store, x, &mg, training, rng)
        };

    let mut best_val = 0.0f64;
    let mut epoch_time = Stopwatch::new();
    for epoch in 0..run.epochs {
        epoch_time.start();
        let mut tape = Tape::new();
        let h = forward(&mut tape, &store, true, &mut rng);
        let loss_var = match run.task {
            TaskKind::Supervised => {
                let dec = decoder.as_ref().expect("head");
                let logits = dec.forward(&mut tape, &store, h);
                cross_entropy_masked(
                    &mut tape,
                    logits,
                    targets.clone(),
                    train_mask.clone().expect("mask"),
                )
            }
            TaskKind::Unsupervised => {
                let (src, dst) = pos_pairs.clone().expect("pairs");
                let negs = sample_non_edges(run.true_graph, src.len(), &mut rng);
                let neg_src: Rc<Vec<u32>> = Rc::new(negs.iter().map(|&(u, _)| u).collect());
                let neg_dst: Rc<Vec<u32>> = Rc::new(negs.iter().map(|&(_, v)| v).collect());
                let pos_logits = link_logits(&mut tape, h, src, dst);
                let neg_logits = link_logits(&mut tape, h, neg_src, neg_dst);
                link_prediction_loss(&mut tape, pos_logits, neg_logits)
            }
        };
        let loss = tape.value(loss_var).item() as f64;
        store.zero_grad();
        let grads = tape.backward(loss_var);
        tape.accumulate_param_grads(&grads, &mut store);
        opt.step(&mut store);
        epoch_time.stop();

        // `eval_every = 0` evaluates at the final epoch only.
        if epoch.checked_rem(run.eval_every) == Some(0) || epoch + 1 == run.epochs {
            let val = eval_metric(
                &run,
                &encoder,
                decoder.as_ref(),
                &store,
                &mg,
                false,
                &mut rng,
            );
            best_val = best_val.max(val);
            report.history.push(EpochMetrics {
                epoch,
                loss,
                val_metric: val,
            });
        }
    }

    report.test_metric = eval_metric(
        &run,
        &encoder,
        decoder.as_ref(),
        &store,
        &mg,
        true,
        &mut rng,
    );
    report.best_val_metric = best_val;
    report.avg_epoch_secs = epoch_time.secs() / run.epochs.max(1) as f64;
    report
}

fn eval_metric(
    run: &PlainRun<'_>,
    encoder: &GnnEncoder,
    decoder: Option<&LinearDecoder>,
    store: &ParamStore,
    mg: &MessageGraph,
    test: bool,
    rng: &mut Xoshiro256pp,
) -> f64 {
    let mut tape = Tape::new();
    let x = tape.constant(run.features.clone());
    let h = encoder.forward(&mut tape, store, x, mg, false, rng);
    match run.task {
        TaskKind::Supervised => {
            let split = run.node_split.as_ref().expect("split");
            let mask = if test {
                &split.test_mask
            } else {
                &split.val_mask
            };
            let dec = decoder.expect("head");
            let logits = dec.forward(&mut tape, store, h);
            accuracy_masked(tape.value(logits), run.true_labels, mask)
        }
        TaskKind::Unsupervised => {
            let split = run.edge_split.as_ref().expect("split");
            let (pos, neg) = if test {
                (&split.test_edges, &split.test_negatives)
            } else {
                (&split.val_edges, &split.val_negatives)
            };
            let score = |pairs: &[(u32, u32)], tape: &mut Tape| -> Vec<f32> {
                let src: Rc<Vec<u32>> = Rc::new(pairs.iter().map(|&(u, _)| u).collect());
                let dst: Rc<Vec<u32>> = Rc::new(pairs.iter().map(|&(_, v)| v).collect());
                let z = link_logits(tape, h, src, dst);
                tape.value(z).data().to_vec()
            };
            let p = score(pos, &mut tape);
            let ng = score(neg, &mut tape);
            roc_auc(&p, &ng)
        }
    }
}

/// Converts a dataset's raw features into the `[n, d]` tensor form.
pub fn features_tensor(features: &[f32], n: usize, dim: usize) -> Tensor {
    Tensor::from_vec(n, dim, features.to_vec())
}
