//! The paper's applications as the batch workloads run them.
//!
//! Each application makes its inputs from the seed, runs once
//! sequentially (the oracle, and the floor `body.seq_s`) and once on each
//! scheduler it is measured on, and checks every runtime output against
//! the oracle or against its validation function. It also lists the task
//! stream it submits, as effect sets, for the scheduler replay of the
//! traced run.

use std::any::Any;
use twe_apps::util::{chunk_ranges, SplitMix64};
use twe_apps::{barneshut, coloring, fourwins, imageedit, kmeans, refine, ssca2, tsp};
use twe_effects::{Effect, EffectSet, Rpl};
use twe_runtime::{Runtime, SchedulerKind};

pub type Output = Box<dyn Any>;

pub trait App {
    fn name(&self) -> &'static str;
    /// The schedulers this application is measured on.
    fn kinds(&self) -> &'static [SchedulerKind] {
        &[SchedulerKind::Naive, SchedulerKind::Tree]
    }
    /// Restores inputs a previous run consumed (untimed).
    fn prepare(&mut self) {}
    /// The sequential run; keeps its output as the oracle.
    fn run_seq(&mut self);
    fn run_twe(&mut self, rt: &Runtime) -> Output;
    /// Is `out` (from the last `run_twe`) correct?
    fn check(&self, out: &Output) -> bool;
    /// Makes `out` wrong in one place (checker self-test).
    fn corrupt(&self, out: &mut Output);
    /// The task stream, in submission batches.
    fn stream(&self) -> Vec<Vec<EffectSet>>;
}

fn get<T: 'static>(out: &Output) -> &T {
    out.downcast_ref::<T>().expect("output of this app")
}

fn get_mut<T: 'static>(out: &mut Output) -> &mut T {
    out.downcast_mut::<T>().expect("output of this app")
}

fn singletons(sets: impl IntoIterator<Item = EffectSet>) -> Vec<Vec<EffectSet>> {
    sets.into_iter().map(|s| vec![s]).collect()
}

/// Sizes of every application, in one place.
#[derive(Clone, Copy)]
pub struct Sizes {
    pub ssca2_nodes: usize,
    pub ssca2_edges: usize,
    pub kmeans_points: usize,
    pub kmeans_clusters: usize,
    pub bh_bodies: usize,
    pub image_side: usize,
    pub fourwins_depth: u32,
    pub tsp_cities: usize,
    pub refine_triangles: usize,
    pub coloring_nodes: usize,
}

impl Sizes {
    /// The sizes the workloads measure.
    pub const FULL: Sizes = Sizes {
        ssca2_nodes: 2_000,
        ssca2_edges: 20_000,
        kmeans_points: 1_400,
        kmeans_clusters: 1_000,
        bh_bodies: 30_000,
        image_side: 2_048,
        fourwins_depth: 7,
        tsp_cities: 12,
        refine_triangles: 100_000,
        coloring_nodes: 100_000,
    };

    /// Small sizes for the checker self-test.
    pub const SMALL: Sizes = Sizes {
        ssca2_nodes: 200,
        ssca2_edges: 2_000,
        kmeans_points: 200,
        kmeans_clusters: 20,
        bh_bodies: 300,
        image_side: 96,
        fourwins_depth: 4,
        tsp_cities: 8,
        refine_triangles: 2_000,
        coloring_nodes: 2_000,
    };
}

// ---------------------------------------------------------------- fine grain

pub struct Ssca2 {
    cfg: ssca2::Ssca2Config,
    edges: Vec<ssca2::Edge>,
    oracle: ssca2::Adjacency,
}

impl Ssca2 {
    pub fn new(seed: u64, s: &Sizes) -> Self {
        let cfg = ssca2::Ssca2Config {
            n_nodes: s.ssca2_nodes,
            n_edges: s.ssca2_edges,
            edges_per_task: 4,
            seed,
        };
        let edges = ssca2::generate(&cfg);
        Ssca2 {
            cfg,
            edges,
            oracle: Vec::new(),
        }
    }
}

impl App for Ssca2 {
    fn name(&self) -> &'static str {
        "ssca2"
    }
    fn run_seq(&mut self) {
        self.oracle = ssca2::canonical(ssca2::run_sequential(&self.cfg, &self.edges));
    }
    fn run_twe(&mut self, rt: &Runtime) -> Output {
        Box::new(ssca2::run_twe(rt, &self.cfg, &self.edges))
    }
    fn check(&self, out: &Output) -> bool {
        ssca2::canonical(get::<ssca2::Adjacency>(out).clone()) == self.oracle
    }
    fn corrupt(&self, out: &mut Output) {
        let adj = get_mut::<ssca2::Adjacency>(out);
        let list = adj
            .iter_mut()
            .find(|l| !l.is_empty())
            .expect("a non-empty list");
        list.pop();
    }
    fn stream(&self) -> Vec<Vec<EffectSet>> {
        let n_tasks = self.cfg.n_edges.div_ceil(self.cfg.edges_per_task);
        singletons(
            chunk_ranges(self.edges.len(), n_tasks)
                .into_iter()
                .map(|r| {
                    let mut set = EffectSet::pure();
                    for &(u, v) in &self.edges[r] {
                        for node in [u, v] {
                            set.push(Effect::write(Rpl::parse("Nodes").child_index(node as i64)));
                        }
                    }
                    set
                }),
        )
    }
}

pub struct KMeans {
    input: kmeans::KMeansInput,
    oracle: Option<kmeans::KMeansOutput>,
}

impl KMeans {
    pub fn new(seed: u64, s: &Sizes) -> Self {
        let cfg = kmeans::KMeansConfig {
            n_points: s.kmeans_points,
            n_clusters: s.kmeans_clusters,
            n_features: 8,
            seed,
            points_per_task: 1,
        };
        KMeans {
            input: kmeans::generate(&cfg),
            oracle: None,
        }
    }

    /// The cluster each point's `accumulate` task writes.
    fn nearest(&self, p: usize) -> usize {
        let nf = self.input.config.n_features;
        let pt = &self.input.points[p * nf..(p + 1) * nf];
        let dist = |c: usize| -> f32 {
            let centre = &self.input.centers[c * nf..(c + 1) * nf];
            pt.iter().zip(centre).map(|(a, b)| (a - b) * (a - b)).sum()
        };
        (0..self.input.config.n_clusters)
            .min_by(|&a, &b| dist(a).total_cmp(&dist(b)))
            .expect("at least one cluster")
    }
}

impl App for KMeans {
    fn name(&self) -> &'static str {
        "kmeans"
    }
    /// Naive k-means loses an update now and then, so it is not measured.
    fn kinds(&self) -> &'static [SchedulerKind] {
        &[SchedulerKind::Tree]
    }
    fn run_seq(&mut self) {
        self.oracle = Some(kmeans::run_sequential(&self.input));
    }
    fn run_twe(&mut self, rt: &Runtime) -> Output {
        Box::new(kmeans::run_twe(rt, &self.input))
    }
    fn check(&self, out: &Output) -> bool {
        kmeans::outputs_match(get(out), self.oracle.as_ref().expect("oracle ran"))
    }
    fn corrupt(&self, out: &mut Output) {
        get_mut::<kmeans::KMeansOutput>(out).sums[0] += 1.0;
    }
    fn stream(&self) -> Vec<Vec<EffectSet>> {
        let n = self.input.config.n_points;
        let mut out = vec![(0..n).map(|_| EffectSet::parse("reads Root")).collect()];
        out.extend(singletons((0..n).map(|p| {
            EffectSet::parse(&format!(
                "reads Root, writes Clusters:[{}]",
                self.nearest(p)
            ))
        })));
        out
    }
}

// -------------------------------------------------------------- coarse grain

pub struct BarnesHut {
    cfg: barneshut::BarnesHutConfig,
    bodies: Vec<barneshut::Body>,
    tree: barneshut::QuadTree,
    oracle: Vec<(f64, f64)>,
}

impl BarnesHut {
    pub fn new(seed: u64, s: &Sizes) -> Self {
        let cfg = barneshut::BarnesHutConfig {
            n_bodies: s.bh_bodies,
            chunks: 64,
            seed,
            ..Default::default()
        };
        let bodies = barneshut::generate(&cfg);
        let tree = barneshut::build_tree(&bodies);
        BarnesHut {
            cfg,
            bodies,
            tree,
            oracle: Vec::new(),
        }
    }
}

impl App for BarnesHut {
    fn name(&self) -> &'static str {
        "barneshut"
    }
    fn run_seq(&mut self) {
        self.oracle = barneshut::run_sequential(&self.cfg, &self.bodies, &self.tree);
    }
    fn run_twe(&mut self, rt: &Runtime) -> Output {
        Box::new(barneshut::run_twe(rt, &self.cfg, &self.bodies, &self.tree))
    }
    fn check(&self, out: &Output) -> bool {
        barneshut::forces_match(get::<Vec<(f64, f64)>>(out), &self.oracle)
    }
    fn corrupt(&self, out: &mut Output) {
        get_mut::<Vec<(f64, f64)>>(out)[0].0 += 1.0;
    }
    fn stream(&self) -> Vec<Vec<EffectSet>> {
        let mut sets = vec![EffectSet::parse("reads Tree, writes Bodies:*")];
        sets.extend(
            (0..self.cfg.chunks)
                .map(|c| EffectSet::parse(&format!("reads Tree, writes Bodies:[{c}]"))),
        );
        singletons(sets)
    }
}

pub struct ImageEdit {
    cfg: imageedit::ImageEditConfig,
    src: imageedit::Image,
    oracle: Option<imageedit::Image>,
}

impl ImageEdit {
    pub fn new(seed: u64, s: &Sizes, filter: imageedit::Filter) -> Self {
        let cfg = imageedit::ImageEditConfig {
            width: s.image_side,
            height: s.image_side,
            blocks: 64,
            filter,
            seed,
        };
        let src = imageedit::Image::synthetic(cfg.width, cfg.height, seed);
        ImageEdit {
            cfg,
            src,
            oracle: None,
        }
    }
}

impl App for ImageEdit {
    fn name(&self) -> &'static str {
        match self.cfg.filter {
            imageedit::Filter::EdgeDetect => "imageedit-edge",
            _ => "imageedit-sharpen",
        }
    }
    fn run_seq(&mut self) {
        self.oracle = Some(imageedit::run_sequential(&self.cfg, &self.src));
    }
    fn run_twe(&mut self, rt: &Runtime) -> Output {
        Box::new(imageedit::run_twe(rt, &self.cfg, &self.src))
    }
    fn check(&self, out: &Output) -> bool {
        imageedit::images_match(get(out), self.oracle.as_ref().expect("oracle ran"))
    }
    fn corrupt(&self, out: &mut Output) {
        get_mut::<imageedit::Image>(out).pixels[0] += 1.0;
    }
    fn stream(&self) -> Vec<Vec<EffectSet>> {
        let mut out = vec![(0..self.cfg.blocks)
            .map(|b| EffectSet::parse(&format!("reads Input, writes Image:[{b}]")))
            .collect()];
        if self.cfg.filter == imageedit::Filter::EdgeDetect {
            out.push(vec![EffectSet::parse("writes Image:*")]);
        }
        out
    }
}

pub struct FourWins {
    cfg: fourwins::FourWinsConfig,
    oracle: Option<fourwins::SearchResult>,
}

impl FourWins {
    pub fn new(seed: u64, s: &Sizes) -> Self {
        // Four opening moves from the seed; no four moves can end a game.
        let mut rng = SplitMix64::new(seed);
        let opening = (0..4)
            .map(|_| rng.next_below(fourwins::COLS as u64) as usize)
            .collect();
        FourWins {
            cfg: fourwins::FourWinsConfig {
                depth: s.fourwins_depth,
                parallel_depth: 2,
                opening,
            },
            oracle: None,
        }
    }
}

impl App for FourWins {
    fn name(&self) -> &'static str {
        "fourwins"
    }
    fn run_seq(&mut self) {
        self.oracle = Some(fourwins::run_sequential(&self.cfg));
    }
    fn run_twe(&mut self, rt: &Runtime) -> Output {
        Box::new(fourwins::run_twe(rt, &self.cfg))
    }
    /// Moves with equal scores may be chosen in either order, so the
    /// score is what must match.
    fn check(&self, out: &Output) -> bool {
        get::<fourwins::SearchResult>(out).score == self.oracle.expect("oracle ran").score
    }
    fn corrupt(&self, out: &mut Output) {
        get_mut::<fourwins::SearchResult>(out).score += 1;
    }
    fn stream(&self) -> Vec<Vec<EffectSet>> {
        let mut sets = vec![EffectSet::parse("reads Board, writes AiScratch:*")];
        for m in 0..fourwins::COLS {
            sets.push(EffectSet::parse(&format!(
                "reads Board, writes AiScratch:[{m}]:*"
            )));
            for n in 0..fourwins::COLS {
                sets.push(EffectSet::parse(&format!(
                    "reads Board, writes AiScratch:[{m}]:[{n}]:*"
                )));
            }
        }
        singletons(sets)
    }
}

pub struct Tsp {
    cfg: tsp::TspConfig,
    dist: tsp::DistanceMatrix,
    oracle: u64,
}

impl Tsp {
    pub fn new(seed: u64, s: &Sizes) -> Self {
        let cfg = tsp::TspConfig {
            n_cities: s.tsp_cities,
            cutoff: 3,
            seed,
        };
        let dist = tsp::generate(&cfg);
        Tsp {
            cfg,
            dist,
            oracle: 0,
        }
    }
}

impl App for Tsp {
    fn name(&self) -> &'static str {
        "tsp"
    }
    fn run_seq(&mut self) {
        self.oracle = tsp::run_sequential(&self.dist);
    }
    fn run_twe(&mut self, rt: &Runtime) -> Output {
        Box::new(tsp::run_twe(rt, &self.cfg, &self.dist))
    }
    fn check(&self, out: &Output) -> bool {
        *get::<u64>(out) == self.oracle
    }
    fn corrupt(&self, out: &mut Output) {
        *get_mut::<u64>(out) += 1;
    }
    fn stream(&self) -> Vec<Vec<EffectSet>> {
        let n = self.cfg.n_cities;
        singletons((0..1 + (n - 1) * (n - 2)).map(|_| EffectSet::parse("reads Graph")))
    }
}

// ------------------------------------------------------------------- dynamic

pub struct Refine {
    cfg: refine::RefineConfig,
    mesh: refine::Mesh,
}

impl Refine {
    pub fn new(seed: u64, s: &Sizes) -> Self {
        let cfg = refine::RefineConfig {
            n_triangles: s.refine_triangles,
            seed,
            ..Default::default()
        };
        let mesh = refine::generate(&cfg);
        Refine { cfg, mesh }
    }
}

impl App for Refine {
    fn name(&self) -> &'static str {
        "refine"
    }
    /// Every run refines the mesh in place, so each gets a fresh one.
    fn prepare(&mut self) {
        self.mesh = refine::generate(&self.cfg);
    }
    /// The sequential run is checked like the others: refinement has no
    /// single right answer, only the invariants `refine::validate` states.
    fn run_seq(&mut self) {
        refine::run_sequential(&self.cfg, &self.mesh);
    }
    fn run_twe(&mut self, rt: &Runtime) -> Output {
        Box::new(refine::run_twe(rt, &self.cfg, &self.mesh))
    }
    fn check(&self, out: &Output) -> bool {
        refine::validate(&self.cfg, &self.mesh, get(out))
    }
    /// One triangle refined twice, as two overlapping cavities would.
    fn corrupt(&self, out: &mut Output) {
        let _ = out;
        self.mesh.triangles[self.mesh.bad_list[0]].write().refined += 1;
    }
    fn stream(&self) -> Vec<Vec<EffectSet>> {
        singletons(self.mesh.bad_list.iter().map(|_| EffectSet::pure()))
    }
}

pub struct Coloring {
    cfg: coloring::ColoringConfig,
    graph: coloring::ColorGraph,
}

impl Coloring {
    pub fn new(seed: u64, s: &Sizes) -> Self {
        let cfg = coloring::ColoringConfig {
            n_nodes: s.coloring_nodes,
            avg_degree: 8,
            seed,
        };
        let graph = coloring::generate(&cfg);
        Coloring { cfg, graph }
    }
}

impl App for Coloring {
    fn name(&self) -> &'static str {
        "coloring"
    }
    fn prepare(&mut self) {
        self.graph = coloring::generate(&self.cfg);
    }
    fn run_seq(&mut self) {
        coloring::run_sequential(&self.graph);
    }
    fn run_twe(&mut self, rt: &Runtime) -> Output {
        Box::new(coloring::run_twe(rt, &self.graph))
    }
    fn check(&self, out: &Output) -> bool {
        let out = get::<coloring::ColoringOutput>(out);
        out.colored == self.graph.nodes.len() && coloring::validate(&self.graph)
    }
    fn corrupt(&self, out: &mut Output) {
        let _ = out;
        let (i, node) = self
            .graph
            .nodes
            .iter()
            .enumerate()
            .find(|(_, n)| !n.read().neighbors.is_empty())
            .expect("a node with a neighbour");
        let n = node.read().neighbors[0];
        debug_assert_ne!(n, i);
        let c = self.graph.nodes[n].read().color;
        node.write().color = c;
    }
    fn stream(&self) -> Vec<Vec<EffectSet>> {
        singletons(self.graph.nodes.iter().map(|_| EffectSet::pure()))
    }
}
