//! Cross-crate integration tests: the full pipeline from transaction source
//! text through analysis, treaty generation and protocol execution.

use homeostasis::analysis::{JointSymbolicTable, SymbolicTable};
use homeostasis::lang::{parse_program, Database, Evaluator};
use homeostasis::protocol::correctness::verify_round;
use homeostasis::protocol::templates::{preprocess_guard, TreatyTemplates};
use homeostasis::protocol::{HomeostasisCluster, Loc, OptimizerConfig};
use homeostasis::sim::DetRng;
use homeostasis::HomeostasisSystem;

const WORKLOAD_SRC: &str = r#"
    transaction Debit() {
      bal := read(balance);
      if (bal >= 10) then {
        write(balance = bal - 10);
      } else {
        print(bal);
      }
    }
    transaction Credit() {
      bal := read(balance);
      write(balance = bal + 5);
      audit := read(audit_count);
      write(audit_count = audit + 1);
    }
"#;

#[test]
fn parsed_workload_flows_through_analysis_and_treaties() {
    // Parse from source text (the role ANTLR plays in the paper's prototype).
    let transactions = parse_program(WORKLOAD_SRC).expect("workload parses");
    assert_eq!(transactions.len(), 2);

    // Analysis: symbolic tables and the joint table.
    let tables: Vec<SymbolicTable> = transactions.iter().map(SymbolicTable::analyze).collect();
    assert_eq!(tables[0].len(), 2);
    assert_eq!(tables[1].len(), 1);
    let joint = JointSymbolicTable::build(&tables);
    assert_eq!(joint.len(), 2);

    // Treaty generation for a concrete database.
    let db = Database::from_pairs([("balance", 100), ("audit_count", 3)]);
    let row = joint.find_row(&db).unwrap().expect("row for the database");
    let psi = preprocess_guard(&row.guard, &db);
    let loc = Loc::from_pairs([("balance", 0usize), ("audit_count", 1usize)]);
    let templates = TreatyTemplates::generate(&psi, &loc, 2);
    let config = templates.default_config(&db);
    assert!(templates.config_is_valid(&config));
    for local in templates.local_treaties(&config) {
        assert!(local.holds_on(&db));
        assert!(local.is_well_located(&loc));
    }
}

#[test]
fn protocol_execution_of_the_parsed_workload_is_equivalent_to_serial() {
    let transactions = parse_program(WORKLOAD_SRC).expect("workload parses");
    let loc = Loc::from_pairs([("balance", 0usize), ("audit_count", 0usize)]);
    let initial = Database::from_pairs([("balance", 60)]);
    let mut cluster = HomeostasisCluster::new(transactions.clone(), loc, 2, initial.clone(), None);

    let mut serial = initial;
    let mut rng = DetRng::seed_from(2024);
    for _ in 0..40 {
        let t = rng.index(2);
        let out = cluster.execute(t).unwrap();
        assert!(out.committed);
        serial = Evaluator::eval(&transactions[t], &serial, &[])
            .unwrap()
            .database;
        assert!(verify_round(&cluster).is_equivalent());
    }
    assert_eq!(cluster.global_database(), serial);
}

#[test]
fn facade_system_supports_optimized_and_default_treaties() {
    for optimizer in [
        None,
        Some(OptimizerConfig {
            lookahead: 10,
            futures: 2,
            seed: 5,
        }),
    ] {
        let mut builder = HomeostasisSystem::builder()
            .transactions(vec![
                homeostasis::lang::programs::t1(),
                homeostasis::lang::programs::t2(),
            ])
            .location(Loc::from_pairs([("x", 0usize), ("y", 1usize)]))
            .sites(2)
            .initial_database(Database::from_pairs([("x", 12), ("y", 11)]));
        if let Some(cfg) = optimizer {
            builder = builder.optimizer(cfg);
        }
        let mut system = builder.build();
        let mut syncs = 0;
        for i in 0..30 {
            let out = system.execute_index(i % 2).unwrap();
            assert!(out.committed);
            if out.synchronized {
                syncs += 1;
                assert_eq!(out.comm_rounds, 2);
            }
        }
        assert!(system.verify_equivalence());
        // With the optimizer, at least some transactions must avoid
        // synchronization; the default (Theorem 4.3) configuration may
        // synchronize more often but never breaks equivalence.
        if optimizer.is_some() {
            assert!(syncs < 30);
        }
    }
}

#[test]
fn store_engine_recovery_preserves_protocol_state() {
    use homeostasis::store::Engine;
    // A site crash in the middle of a round: committed writes survive, the
    // in-flight transaction disappears, and the homeostasis layer can
    // recompute its in-memory treaty state from the recovered database
    // (Section 5.2's failure-handling story).
    let engine = Engine::new();
    engine.poke("stock[1]", 100);
    let mut committed = engine.begin();
    engine.write(&committed, "stock[1]", 99).unwrap();
    engine.commit(&mut committed).unwrap();
    let in_flight = engine.begin();
    engine.write(&in_flight, "stock[1]", 42).unwrap(); // staged but never committed
    engine.crash_and_recover();
    assert_eq!(engine.peek("stock[1]"), 99);

    // Rebuild treaties from the recovered state.
    let db = Database::from_pairs([("stock[1]", engine.peek("stock[1]"))]);
    let templates = TreatyTemplates::generate(
        &[homeostasis::solver::LinearConstraint::ge(
            homeostasis::solver::LinExpr::var("stock[1]"),
            homeostasis::solver::LinExpr::constant(0),
        )],
        &Loc::new().with_default_site(0),
        2,
    );
    let config = templates.default_config(&db);
    assert!(templates.config_is_valid(&config));
}
