//! One module per paper application. Each `build(workers)` returns a
//! [`crate::Workload`] whose structure (region sizes, syscall density,
//! abort sources, planted races) models what the paper's Table 1 reports
//! for the original program, scaled down per the module's `scale` note.

pub mod actors;
pub mod apache;
pub mod blackscholes;
pub mod bodytrack;
pub mod canneal;
pub mod dedup;
pub mod facesim;
pub mod ferret;
pub mod fluidanimate;
pub mod freqmine;
pub mod pipeline;
pub mod raytrace;
pub mod streamcluster;
pub mod swaptions;
pub mod vips;
pub mod worksteal;
pub mod x264;

#[cfg(test)]
mod tests {
    use txrace_sim::{DirectRuntime, Machine, RoundRobin, RunStatus};

    /// Every app must build and run to completion uninstrumented, at every
    /// evaluated worker count.
    #[test]
    fn all_apps_run_to_completion() {
        for workers in [2, 4, 8] {
            for w in crate::all_workloads(workers) {
                let mut m = Machine::new(&w.program);
                let mut rt = DirectRuntime::default();
                let mut s = RoundRobin::new();
                let r = m.run(&mut rt, &mut s);
                assert_eq!(
                    r.status,
                    RunStatus::Done,
                    "{} with {workers} workers: {:?}",
                    w.name,
                    r
                );
            }
        }
    }

    /// Planted manifests must resolve to real sites, and the registry
    /// finds every app under its own name.
    #[test]
    fn manifests_resolve() {
        for w in crate::all_workloads(4) {
            let pairs = w.planted_pairs();
            assert_eq!(pairs.len(), w.planted.len(), "{}", w.name);
            assert_eq!(crate::by_name(w.name, 4).map(|b| b.name), Some(w.name));
        }
    }

    /// The paper's per-app TSan race counts (Table 1, "TSan races").
    #[test]
    fn planted_race_counts_match_table1() {
        let expected = [
            ("blackscholes", 0),
            ("fluidanimate", 1),
            ("swaptions", 0),
            ("freqmine", 0),
            ("vips", 112),
            ("raytrace", 2),
            ("ferret", 1),
            ("x264", 64),
            ("bodytrack", 8),
            ("facesim", 9),
            ("streamcluster", 4),
            ("dedup", 0),
            ("canneal", 1),
            ("apache", 0),
        ];
        let workloads = crate::all_workloads(4);
        for (name, count) in expected {
            let w = workloads.iter().find(|w| w.name == name).expect(name);
            assert_eq!(w.planted.len(), count, "{name}");
        }
    }
}

#[cfg(test)]
mod structure_tests {
    //! Cheap structural assertions pinning each app's modeling intent,
    //! without running any detector.

    use txrace_sim::Op;

    fn dynamic_count(p: &txrace_sim::Program, f: impl Fn(&Op) -> bool) -> u64 {
        p.fold_dynamic(|op| u64::from(f(op)))
    }

    #[test]
    fn syscall_density_separates_tight_loop_apps() {
        // swaptions/streamcluster model tight loops with syscalls in the
        // body (the big Figure 7 management bars); freqmine is the
        // opposite extreme.
        let density = |name: &str| {
            let w = crate::by_name(name, 4).unwrap();
            let sys = dynamic_count(&w.program, |op| matches!(op, Op::Syscall(_))) as f64;
            let acc = w.program.dynamic_access_count() as f64;
            sys / acc
        };
        assert!(density("swaptions") > 4.0 * density("freqmine"));
        assert!(density("streamcluster") > 2.0 * density("freqmine"));
    }

    #[test]
    fn freqmine_has_the_biggest_regions() {
        // Few, huge synchronization-free regions: freqmine's accesses per
        // syscall dwarf everyone else's.
        let per_region = |name: &str| {
            let w = crate::by_name(name, 4).unwrap();
            let sys = dynamic_count(&w.program, |op| matches!(op, Op::Syscall(_))).max(1);
            w.program.dynamic_access_count() / sys
        };
        let fm = per_region("freqmine");
        for other in ["swaptions", "bodytrack", "apache", "canneal"] {
            assert!(fm > 5 * per_region(other), "{other}");
        }
    }

    #[test]
    fn vips_is_the_shadow_pathological_app() {
        let sf = |name: &str| crate::by_name(name, 4).unwrap().shadow_factor;
        let vips = sf("vips");
        for other in [
            "blackscholes",
            "fluidanimate",
            "swaptions",
            "freqmine",
            "raytrace",
            "ferret",
            "x264",
            "bodytrack",
            "facesim",
            "streamcluster",
            "dedup",
            "canneal",
            "apache",
        ] {
            assert!(vips > 5.0 * sf(other), "{other}");
        }
    }

    #[test]
    fn bodytrack_is_the_interrupt_pathological_app() {
        let p = |name: &str| crate::by_name(name, 4).unwrap().interrupts.context_switch_p;
        let bt = p("bodytrack");
        for other in [
            "blackscholes",
            "fluidanimate",
            "swaptions",
            "freqmine",
            "facesim",
        ] {
            assert!(bt > 4.0 * p(other), "{other}");
        }
    }

    #[test]
    fn barrier_phased_apps_use_barriers() {
        for name in ["fluidanimate", "streamcluster", "x264"] {
            let w = crate::by_name(name, 4).unwrap();
            assert!(w.program.barrier_count() > 0, "{name}");
        }
        for name in ["blackscholes", "freqmine", "apache"] {
            let w = crate::by_name(name, 4).unwrap();
            assert_eq!(w.program.barrier_count(), 0, "{name}");
        }
    }

    #[test]
    fn lock_based_apps_use_locks() {
        for name in ["ferret", "apache"] {
            let w = crate::by_name(name, 4).unwrap();
            assert!(
                dynamic_count(&w.program, |op| matches!(op, Op::Lock(_))) > 0,
                "{name}"
            );
        }
    }

    #[test]
    fn atomic_conflict_apps_use_rmw() {
        // dedup/canneal/streamcluster/fluidanimate model benign atomic
        // contention (conflicts with no races).
        for name in [
            "dedup",
            "canneal",
            "streamcluster",
            "fluidanimate",
            "apache",
        ] {
            let w = crate::by_name(name, 4).unwrap();
            assert!(
                dynamic_count(&w.program, |op| matches!(op, Op::Rmw(_, _))) > 0,
                "{name}"
            );
        }
    }

    #[test]
    fn main_thread_spawns_and_joins_every_worker() {
        for workers in [2, 4, 8] {
            for w in crate::all_workloads(workers) {
                assert_eq!(w.program.thread_count(), workers + 1, "{}", w.name);
                for t in 1..=workers {
                    assert!(
                        w.program.starts_parked(txrace_sim::ThreadId(t as u32)),
                        "{} worker {t}",
                        w.name
                    );
                }
            }
        }
    }

    #[test]
    fn message_passing_apps_use_channels_and_nobody_else_does() {
        for workers in [2, 4, 8] {
            for w in crate::all_workloads(workers) {
                let chan_ops = dynamic_count(&w.program, |op| {
                    matches!(op, Op::ChanSend(_) | Op::ChanRecv(_))
                });
                let is_mp = matches!(w.name, "pipeline" | "actors" | "worksteal");
                if is_mp {
                    assert!(w.program.chan_count() > 0, "{}", w.name);
                    assert!(chan_ops > 0, "{}", w.name);
                    // Balanced traffic: the lint would flag a workload
                    // that strands messages or starves a receiver.
                    let sends = dynamic_count(&w.program, |op| matches!(op, Op::ChanSend(_)));
                    assert_eq!(sends * 2, chan_ops, "{} at {workers}", w.name);
                } else {
                    assert_eq!(w.program.chan_count(), 0, "{}", w.name);
                }
            }
        }
    }

    #[test]
    fn capacity_apps_have_big_footprint_regions() {
        // The straight-line flush / strided walk signature: WriteArr with
        // a full cache-line stride, or >= 32 distinct static write lines.
        for name in [
            "swaptions",
            "freqmine",
            "vips",
            "bodytrack",
            "dedup",
            "ferret",
            "x264",
        ] {
            let w = crate::by_name(name, 4).unwrap();
            let mut strided = 0u64;
            let mut lines = std::collections::BTreeSet::new();
            w.program.visit_static(&mut |_, _, op| match op {
                Op::WriteArr { stride, .. } if *stride >= 64 => strided += 1,
                Op::Write(a, _) => {
                    lines.insert(a.line());
                }
                _ => {}
            });
            assert!(
                strided > 0 || lines.len() >= 32,
                "{name}: no capacity-prone structure found"
            );
        }
    }
}
