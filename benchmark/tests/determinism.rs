//! The seed fixes every byte the daemon receives.

use mnc_benchmark::inputs::{
    client_id, estimate_body, generate, Picks, Workload, CLIENT_IDS, TEMPLATES,
};
use mnc_benchmark::served::uploads;

/// Everything a workload sends: set-up ingests, churn bodies, and the first
/// requests of each client thread's stream.
fn traffic(workload: Workload, seed: u64) -> Vec<Vec<u8>> {
    let inputs = generate(workload, seed);
    assert_eq!(inputs.templates.len(), TEMPLATES);
    let mut out: Vec<Vec<u8>> = uploads(workload, &inputs)
        .into_iter()
        .map(|u| [u.name.as_bytes(), &u.body()].concat())
        .collect();
    out.extend(
        inputs
            .churn
            .iter()
            .map(|l| mnc_benchmark::inputs::csr_body(&l.matrix)),
    );
    for thread in 0..2 {
        let mut picks = Picks::new(seed, thread);
        for _ in 0..64 {
            let (t, c) = picks.next_pick();
            assert!(c < CLIENT_IDS);
            out.push(estimate_body(&inputs.templates[t], &client_id(c)));
        }
    }
    out
}

#[test]
fn same_seed_same_bytes_different_seed_different_bytes() {
    for workload in [
        Workload::ServeSmall,
        Workload::IngestChurn,
        Workload::ServeDeep,
    ] {
        let a = traffic(workload, 7);
        assert_eq!(
            a,
            traffic(workload, 7),
            "{}: same seed differs",
            workload.name()
        );
        let b = traffic(workload, 8);
        assert_eq!(
            a.len(),
            b.len(),
            "{}: seed changed the request count",
            workload.name()
        );
        assert_ne!(a, b, "{}: seed changed nothing", workload.name());
    }
}

#[test]
fn storage_shapes_do_not_depend_on_the_seed() {
    // Catalog sizes are compared across seeds, so only positions and values
    // may vary with the seed — never shapes or structure classes.
    for workload in [Workload::ServeSmall, Workload::IngestChurn] {
        let (a, b) = (generate(workload, 1), generate(workload, 2));
        for (x, y) in a.leaves.iter().zip(&b.leaves) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.matrix.shape(), y.matrix.shape());
        }
    }
}

#[test]
fn request_bodies_parse_and_name_their_session() {
    let inputs = generate(Workload::ServeSmall, 3);
    for t in &inputs.templates {
        let body = estimate_body(t, "c05");
        let req = mnc_served::proto::parse_estimate_request(&body).expect("valid request");
        assert_eq!(req.client, "c05");
        assert_eq!(req.dag.nodes.len(), t.dag.nodes.len());
        assert_eq!(req.dag.root, t.dag.root);
        assert_eq!(req.include_sketch, t.include_sketch);
    }
}
