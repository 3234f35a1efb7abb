//! The serve scheduler: a discrete-event loop over the modeled clock.
//!
//! Jobs move through `Arriving -> Ingesting -> Queued -> Running ->
//! Completed`, with `Running -> Preempted -> Queued` loops when a
//! higher-priority job claims their devices. All functional execution
//! is eager (a job's iteration is computed when its boundary event is
//! scheduled — jobs are independent, so order does not matter); only
//! the *timeline* is discrete-event, which keeps the scheduler exact
//! without re-implementing any numerics.
//!
//! Scheduling policy, deliberately simple and fully deterministic:
//!
//! - **Admission**: a job whose lease can never fit the fleet (or that
//!   asks for zero work) is rejected at arrival, not queued forever.
//! - **Ordering**: strict priority, then earliest deadline, then
//!   ready time, then workload order.
//! - **Preemption**: if the head of the queue cannot get its lease,
//!   the lowest-priority running jobs are marked; each checkpoints at
//!   its next iteration boundary and releases its devices. Nothing
//!   behind a blocked head is backfilled — under a deterministic
//!   model, churn costs more than the idle it would fill.
//! - **Resume**: a preempted job re-enters the queue holding its
//!   [`Checkpoint`]; on its next grant a fresh driver is built on the
//!   (possibly different) lease and restored — bitwise identical to
//!   never having been interrupted, per-job `modeled_seconds`
//!   included.

use crate::report::{percentile, JobReport, ServeReport};
use crate::sink::LeaseSink;
use crate::spec::{JobSpec, WorkloadSpec};
use ct_core::image::Image;
use ct_core::project::{scan, NoiseModel};
use gpu_icd::pipeline::{Case, Setup};
use gpu_icd::{gpu_options_for, plan_config, Checkpoint, GpuIcd, GpuOptions, MbirError, Scale};
use mbir::prior::QggmrfPrior;
use mbir_fleet::{FleetSpec, UsageLedger};
use mbir_telemetry::{JobRecord, ProfileSink, RecordingSink};
use std::sync::Arc;
use supervoxel::plan::SvPlanSet;

/// One job, fully prepared to build drivers from: its measurement on
/// the shared set-up of its scale.
struct Prepared {
    case: Case,
    opts: GpuOptions,
    /// Held so that every driver of the job, across preemptions, and
    /// every job of its scale runs on one plan.
    _plan: Arc<SvPlanSet>,
    /// Seconds after arrival until the job can enter the queue
    /// (streaming ingest overlapped with setup).
    ready_offset: f64,
    /// Setup seconds hidden behind streaming view arrival.
    hidden_seconds: f64,
}

/// System matrices and SV plans are immutable and scale-determined,
/// so jobs of the same scale share one set-up.
type PrepCache = Vec<(Scale, Arc<Setup>)>;

fn prepare_job(
    fleet: &FleetSpec,
    spec: &JobSpec,
    cache: &mut PrepCache,
) -> Result<Prepared, MbirError> {
    let mut opts = gpu_options_for(spec.scale);
    opts.devices = spec.devices;
    opts.seed = spec.seed;
    opts.profile = false;
    let geom = spec.scale.geometry();
    let setup = match cache.iter().find(|(s, _)| *s == spec.scale) {
        Some((_, setup)) => setup.clone(),
        None => {
            let setup = Setup::new(geom);
            cache.push((spec.scale, setup.clone()));
            setup
        }
    };
    let a = setup.a();
    let plan = setup.plan(opts.sv_side, plan_config(&opts));
    let phantom = spec.resolve_phantom().map_err(MbirError::Usage)?;
    let truth = phantom.render(geom.grid, 2);
    let s = scan(a, &truth, Some(NoiseModel::default_dose()), spec.seed);

    // Streaming ingestion, priced as a two-stage pipeline: stage one
    // is view arrival at `view_rate`, stage two is per-view setup
    // (FBP back-projection of the view plus its error-sinogram rows),
    // priced by the bytes it moves through device DRAM. Overlapped,
    // the job is ready at `max(ingest, setup) + min(per-view terms)`;
    // sequential ingest-then-prepare would cost the sum. The
    // difference is the latency streaming hides (iFDK-style).
    let views = geom.num_views as f64;
    let bytes_per_view = (a.nnz() as f64 / views) * 8.0 + geom.num_channels as f64 * 8.0;
    let setup_per_view = bytes_per_view / (fleet.gpu.dram_gbps * 1e9);
    let setup_seconds = views * setup_per_view;
    let (ready_offset, hidden_seconds) = match spec.view_rate {
        Some(rate) => {
            let per_view_ingest = 1.0 / rate;
            let ingest = views * per_view_ingest;
            let pipelined = ingest.max(setup_seconds) + per_view_ingest.min(setup_per_view);
            (pipelined, (ingest + setup_seconds) - pipelined)
        }
        None => (setup_seconds, 0.0),
    };

    let case = Case::new(setup, s.y, s.weights, spec.sigma);
    Ok(Prepared { case, opts, _plan: plan, ready_offset, hidden_seconds })
}

/// Build (or rebuild) a driver on a lease: carve the sub-fleet when
/// the lease spans devices, restore the checkpoint when resuming.
fn build_driver<'p>(
    p: &'p Prepared,
    fleet: &FleetSpec,
    ckp: Option<&Checkpoint>,
    sink: Option<&Arc<LeaseSink>>,
) -> Result<GpuIcd<'p, QggmrfPrior>, MbirError> {
    let mut gpu = p.case.gpu(p.opts);
    if p.opts.devices > 1 {
        gpu.set_fleet_spec(
            fleet.carve(p.opts.devices).map_err(|e| MbirError::Usage(e.to_string()))?,
        )?;
    }
    if let Some(c) = ckp {
        gpu.restore(c)?;
    }
    if let Some(s) = sink {
        gpu.set_profile_sink(s.clone() as Arc<dyn ProfileSink>);
    }
    Ok(gpu)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Arriving,
    Ingesting,
    Queued,
    Running,
    Preempted,
    Done,
    Rejected,
}

#[derive(Debug)]
struct JobState {
    phase: Phase,
    reject_reason: Option<String>,
    /// Arrival + ingest/setup offset: when the job can first run.
    ready: f64,
    /// Next iteration-boundary event while `Running`.
    boundary: f64,
    /// Physical device ids held while `Running`.
    lease: Vec<usize>,
    ckp: Option<Checkpoint>,
    preempt_requested: bool,
    first_start: f64,
    completed_at: f64,
    busy: f64,
    final_modeled: f64,
    iterations: u64,
    preemptions: u64,
}

/// What a serve run produces: the aggregate report plus each completed
/// job's reconstruction (in completion order) for identity checks and
/// output writing.
pub struct ServeOutcome {
    /// Aggregate + per-job + per-tenant report.
    pub report: ServeReport,
    /// `(job id, final image)` per completed job, completion order.
    pub images: Vec<(String, Image)>,
}

/// The serve scheduler: a workload run against a fleet.
pub struct Server {
    fleet: FleetSpec,
    workload: WorkloadSpec,
    backfill: bool,
}

impl Server {
    /// A server for one fleet and one workload.
    pub fn new(fleet: FleetSpec, workload: WorkloadSpec) -> Server {
        Server { fleet, workload, backfill: false }
    }

    /// Opt into backfill scheduling (`--backfill`): when the queue
    /// head is blocked waiting on preempted victims, *strictly
    /// lower-priority* jobs may lease the free devices the head is
    /// not waiting for. The head's own lease time is untouched — the
    /// devices it needs stay reserved, and a backfilled job is itself
    /// preemptible the moment a higher-priority job wants its
    /// devices — so backfill can only raise utilization, never starve
    /// the head. Off by default (the conservative no-backfill policy
    /// of earlier releases).
    pub fn backfill(mut self, on: bool) -> Server {
        self.backfill = on;
        self
    }

    /// Why a job can never run on this fleet, if so.
    fn admission_error(&self, spec: &JobSpec) -> Option<String> {
        if spec.devices == 0 {
            return Some("lease of 0 devices requested".into());
        }
        if spec.devices > self.fleet.devices {
            return Some(format!(
                "lease of {} devices exceeds fleet size {}",
                spec.devices, self.fleet.devices
            ));
        }
        if spec.iters == 0 {
            return Some("zero iterations requested".into());
        }
        None
    }

    /// Run the workload to completion. When `sink` is given, kernel
    /// spans (remapped by [`LeaseSink`]) and schema-v5 job-lifecycle
    /// records are emitted into it.
    pub fn run(&self, sink: Option<&Arc<RecordingSink>>) -> Result<ServeOutcome, MbirError> {
        let jobs = &self.workload.jobs;
        let n = jobs.len();
        let emit = |event: &str, j: usize, start: f64, dur: f64, detail: String| {
            if let Some(s) = sink {
                s.job(&JobRecord {
                    job: jobs[j].id.clone(),
                    tenant: jobs[j].tenant.clone(),
                    event: event.to_string(),
                    start_seconds: start,
                    duration_seconds: dur,
                    devices: jobs[j].devices as u64,
                    priority: jobs[j].priority,
                    detail,
                });
            }
        };

        // Admission + preparation, before the clock starts. Rejected
        // jobs are never prepared (no system-matrix work for them).
        let mut cache: PrepCache = Vec::new();
        let mut prepared: Vec<Option<Prepared>> = Vec::with_capacity(n);
        let mut states: Vec<JobState> = Vec::with_capacity(n);
        for spec in jobs {
            let reject = self.admission_error(spec);
            let prep = match &reject {
                None => Some(prepare_job(&self.fleet, spec, &mut cache)?),
                Some(_) => None,
            };
            let ready = spec.arrival_seconds + prep.as_ref().map(|p| p.ready_offset).unwrap_or(0.0);
            states.push(JobState {
                phase: Phase::Arriving,
                reject_reason: reject,
                ready,
                boundary: f64::INFINITY,
                lease: Vec::new(),
                ckp: None,
                preempt_requested: false,
                first_start: 0.0,
                completed_at: 0.0,
                busy: 0.0,
                final_modeled: 0.0,
                iterations: 0,
                preemptions: 0,
            });
            prepared.push(prep);
        }
        let lease_sinks: Vec<Option<Arc<LeaseSink>>> = (0..n)
            .map(|j| {
                sink.filter(|_| prepared[j].is_some()).map(|s| Arc::new(LeaseSink::new(s.clone())))
            })
            .collect();
        let mut drivers: Vec<Option<GpuIcd<'_, QggmrfPrior>>> = (0..n).map(|_| None).collect();

        let mut device_owner: Vec<Option<usize>> = vec![None; self.fleet.devices];
        let mut busy = vec![0.0f64; self.fleet.devices];
        let mut ledger = UsageLedger::new();
        let mut images: Vec<(String, Image)> = Vec::new();
        let mut now = 0.0f64;

        loop {
            // Next event on the modeled clock.
            let mut t = f64::INFINITY;
            for (j, st) in states.iter().enumerate() {
                let e = match st.phase {
                    Phase::Arriving => jobs[j].arrival_seconds,
                    Phase::Ingesting => st.ready,
                    Phase::Running => st.boundary,
                    _ => f64::INFINITY,
                };
                if e < t {
                    t = e;
                }
            }
            if !t.is_finite() {
                break;
            }
            now = now.max(t);

            for j in 0..n {
                match states[j].phase {
                    Phase::Arriving if jobs[j].arrival_seconds <= now => {
                        emit("submitted", j, now, 0.0, String::new());
                        if let Some(reason) = states[j].reject_reason.clone() {
                            states[j].phase = Phase::Rejected;
                            states[j].completed_at = now;
                            emit("rejected", j, now, 0.0, reason);
                        } else {
                            states[j].phase = Phase::Ingesting;
                        }
                    }
                    Phase::Ingesting if states[j].ready <= now => {
                        states[j].phase = Phase::Queued;
                        let hidden = prepared[j].as_ref().map(|p| p.hidden_seconds).unwrap_or(0.0);
                        emit(
                            "ingest_complete",
                            j,
                            jobs[j].arrival_seconds,
                            states[j].ready - jobs[j].arrival_seconds,
                            format!("streaming hid {hidden:.6}s of setup"),
                        );
                    }
                    Phase::Running if states[j].boundary <= now => {
                        let gpu = drivers[j].as_mut().expect("running job has a driver");
                        if gpu.iterations() >= jobs[j].iters {
                            states[j].iterations = gpu.iterations();
                            states[j].final_modeled = gpu.modeled_seconds();
                            images.push((jobs[j].id.clone(), gpu.image().clone()));
                            drivers[j] = None;
                            for &d in &states[j].lease {
                                device_owner[d] = None;
                            }
                            states[j].lease.clear();
                            states[j].phase = Phase::Done;
                            states[j].completed_at = now;
                            ledger.complete(&jobs[j].tenant);
                            emit(
                                "completed",
                                j,
                                jobs[j].arrival_seconds,
                                now - jobs[j].arrival_seconds,
                                format!("{} iterations", states[j].iterations),
                            );
                        } else if states[j].preempt_requested {
                            let ckp = gpu.checkpoint();
                            states[j].iterations = gpu.iterations();
                            drivers[j] = None;
                            for &d in &states[j].lease {
                                device_owner[d] = None;
                            }
                            states[j].lease.clear();
                            states[j].ckp = Some(ckp);
                            states[j].preempt_requested = false;
                            states[j].preemptions += 1;
                            states[j].phase = Phase::Preempted;
                            ledger.preempt(&jobs[j].tenant);
                            emit(
                                "preempted",
                                j,
                                now,
                                0.0,
                                format!("checkpointed at iteration {}", states[j].iterations),
                            );
                        } else {
                            let gpu = drivers[j].as_mut().expect("still running");
                            states[j].boundary = run_one(
                                gpu,
                                &mut states[j],
                                lease_sinks[j].as_deref(),
                                now,
                                &mut busy,
                                &mut ledger,
                                &jobs[j].tenant,
                            );
                        }
                    }
                    _ => {}
                }
            }

            // Scheduling pass: strict priority, earliest deadline,
            // ready order, workload order.
            let mut queue: Vec<usize> = (0..n)
                .filter(|&j| matches!(states[j].phase, Phase::Queued | Phase::Preempted))
                .collect();
            queue.sort_by(|&x, &y| {
                let dx = jobs[x].deadline_seconds.unwrap_or(f64::INFINITY);
                let dy = jobs[y].deadline_seconds.unwrap_or(f64::INFINITY);
                jobs[y]
                    .priority
                    .cmp(&jobs[x].priority)
                    .then(dx.total_cmp(&dy))
                    .then(states[x].ready.total_cmp(&states[y].ready))
                    .then(x.cmp(&y))
            });
            let mut free: Vec<usize> =
                (0..self.fleet.devices).filter(|&d| device_owner[d].is_none()).collect();
            // Once the head of the queue blocks, `blocked` carries
            // (head index, devices reserved for the head). Backfill
            // grants behind the head come only out of the unreserved
            // remainder, so the head's lease time is unchanged.
            let mut blocked: Option<(usize, usize)> = None;
            for &j in &queue {
                let need = jobs[j].devices;
                let grantable = match blocked {
                    None => need <= free.len(),
                    Some((head, reserved)) => {
                        jobs[j].priority < jobs[head].priority
                            && need <= free.len().saturating_sub(reserved)
                    }
                };
                if grantable {
                    let lease: Vec<usize> = free.drain(..need).collect();
                    let p = prepared[j].as_ref().expect("admitted job was prepared");
                    let resumed = states[j].ckp.is_some();
                    let ckp = states[j].ckp.take();
                    let mut gpu =
                        build_driver(p, &self.fleet, ckp.as_ref(), lease_sinks[j].as_ref())?;
                    for &d in &lease {
                        device_owner[d] = Some(j);
                    }
                    states[j].lease = lease;
                    states[j].phase = Phase::Running;
                    if !resumed {
                        states[j].first_start = now;
                    }
                    emit(
                        if resumed { "resumed" } else { "started" },
                        j,
                        now,
                        0.0,
                        format!("devices {:?}", states[j].lease),
                    );
                    states[j].boundary = run_one(
                        &mut gpu,
                        &mut states[j],
                        lease_sinks[j].as_deref(),
                        now,
                        &mut busy,
                        &mut ledger,
                        &jobs[j].tenant,
                    );
                    drivers[j] = Some(gpu);
                    continue;
                }
                if blocked.is_some() {
                    // Behind a blocked head only strictly-lower
                    // priority jobs that fit in the spare devices are
                    // granted; everything else waits its turn.
                    continue;
                }
                // The head of the queue cannot get its lease. Reclaim
                // devices from strictly lower-priority running jobs
                // (checkpointed at their next boundary). Without
                // --backfill nothing behind the blocked head runs.
                let mut incoming: usize = (0..n)
                    .filter(|&v| states[v].phase == Phase::Running && states[v].preempt_requested)
                    .map(|v| states[v].lease.len())
                    .sum();
                if free.len() + incoming < need {
                    let mut victims: Vec<usize> = (0..n)
                        .filter(|&v| {
                            states[v].phase == Phase::Running
                                && !states[v].preempt_requested
                                && jobs[v].priority < jobs[j].priority
                        })
                        .collect();
                    victims
                        .sort_by(|&x, &y| jobs[x].priority.cmp(&jobs[y].priority).then(x.cmp(&y)));
                    for v in victims {
                        if free.len() + incoming >= need {
                            break;
                        }
                        states[v].preempt_requested = true;
                        incoming += states[v].lease.len();
                    }
                }
                if !self.backfill {
                    break;
                }
                blocked = Some((j, need.saturating_sub(incoming).min(free.len())));
            }
        }

        debug_assert!(states.iter().all(|st| matches!(st.phase, Phase::Done | Phase::Rejected)));

        // Aggregate.
        let wall = states.iter().map(|st| st.completed_at).fold(0.0, f64::max);
        let capacity = self.fleet.devices as f64 * wall;
        let total_busy: f64 = busy.iter().sum();
        let completed = states.iter().filter(|st| st.phase == Phase::Done).count() as u64;
        let rejected = n as u64 - completed;
        let latencies: Vec<f64> = (0..n)
            .filter(|&j| states[j].phase == Phase::Done)
            .map(|j| states[j].completed_at - jobs[j].arrival_seconds)
            .collect();
        let job_reports: Vec<JobReport> = (0..n)
            .map(|j| {
                let st = &states[j];
                let done = st.phase == Phase::Done;
                let latency = if done { st.completed_at - jobs[j].arrival_seconds } else { 0.0 };
                let missed =
                    done && jobs[j].deadline_seconds.map(|d| st.completed_at > d).unwrap_or(false);
                JobReport {
                    id: jobs[j].id.clone(),
                    tenant: jobs[j].tenant.clone(),
                    priority: jobs[j].priority,
                    devices: jobs[j].devices,
                    status: if done { "completed" } else { "rejected" }.to_string(),
                    reason: st.reject_reason.clone().unwrap_or_default(),
                    arrival_seconds: jobs[j].arrival_seconds,
                    ready_seconds: st.ready,
                    first_start_seconds: st.first_start,
                    completed_seconds: st.completed_at,
                    latency_seconds: latency,
                    queue_seconds: if done {
                        (st.completed_at - st.ready - st.busy).max(0.0)
                    } else {
                        0.0
                    },
                    busy_seconds: st.busy,
                    modeled_seconds: st.final_modeled,
                    iterations: st.iterations,
                    preemptions: st.preemptions,
                    ingest_hidden_seconds: prepared[j]
                        .as_ref()
                        .map(|p| p.hidden_seconds)
                        .unwrap_or(0.0),
                    deadline_seconds: jobs[j].deadline_seconds,
                    missed_deadline: missed,
                }
            })
            .collect();
        let report = ServeReport {
            devices: self.fleet.devices,
            wall_seconds: wall,
            utilization: if capacity > 0.0 { total_busy / capacity } else { 0.0 },
            completed,
            rejected,
            preemptions: states.iter().map(|st| st.preemptions).sum(),
            jobs_per_hour: if wall > 0.0 { completed as f64 * 3600.0 / wall } else { 0.0 },
            p50_latency_seconds: percentile(&latencies, 50.0),
            p99_latency_seconds: percentile(&latencies, 99.0),
            fairness_jain: ledger.jain_fairness(),
            jobs: job_reports,
            tenants: ledger.summarize(capacity),
            per_device_busy_seconds: busy,
        };
        Ok(ServeOutcome { report, images })
    }
}

/// Run one iteration of a leased driver at `now`, charging the
/// devices it holds and returning the next boundary time.
fn run_one(
    gpu: &mut GpuIcd<'_, QggmrfPrior>,
    st: &mut JobState,
    sink: Option<&LeaseSink>,
    now: f64,
    busy: &mut [f64],
    ledger: &mut UsageLedger,
    tenant: &str,
) -> f64 {
    if let Some(ls) = sink {
        ls.set_lease(st.lease.iter().map(|&d| d as u64).collect(), now - gpu.modeled_seconds());
    }
    let r = gpu.iteration();
    for &d in &st.lease {
        busy[d] += r.modeled_seconds;
    }
    ledger.charge(tenant, st.lease.len() as f64 * r.modeled_seconds);
    st.busy += r.modeled_seconds;
    now + r.modeled_seconds
}

/// Run one job alone on a dedicated fleet — the reference the
/// preemption-identity tests (and operators debugging a tenant's
/// complaint) compare a shared-fleet run against. Returns the final
/// image and the job-local `modeled_seconds`.
pub fn solo_run(fleet: &FleetSpec, spec: &JobSpec) -> Result<(Image, f64), MbirError> {
    if spec.devices == 0 || spec.devices > fleet.devices {
        return Err(MbirError::Usage(format!(
            "solo run needs 1..={} devices, got {}",
            fleet.devices, spec.devices
        )));
    }
    let mut cache = PrepCache::new();
    let p = prepare_job(fleet, spec, &mut cache)?;
    let mut gpu = build_driver(&p, fleet, None, None)?;
    for _ in 0..spec.iters {
        gpu.iteration();
    }
    Ok((gpu.image().clone(), gpu.modeled_seconds()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_job(id: &str) -> JobSpec {
        JobSpec::named(id)
    }

    /// The tentpole invariant: a job that was checkpointed off its
    /// lease and resumed later finishes bitwise identical — image and
    /// job-local modeled seconds — to the same job run alone.
    #[test]
    fn preempted_job_is_bitwise_identical_to_solo_run() {
        let fleet = FleetSpec::titan_x_pcie(2);
        let mut bg = tiny_job("bg");
        bg.tenant = "archive".into();
        bg.devices = 2;
        bg.iters = 6;
        let mut urgent = tiny_job("urgent");
        urgent.tenant = "trauma".into();
        urgent.priority = 5;
        urgent.iters = 2;
        let (solo_img, solo_modeled) = solo_run(&fleet, &bg).expect("solo");
        // Aim the urgent arrival at bg's mid-run, leaving several
        // boundaries on each side so the preemption request always
        // finds an iteration still to run.
        urgent.arrival_seconds = 0.45 * solo_modeled;
        let outcome =
            Server::new(fleet, WorkloadSpec { jobs: vec![bg, urgent] }).run(None).expect("serve");

        let r = &outcome.report;
        let bg_row = r.jobs.iter().find(|j| j.id == "bg").expect("bg row");
        assert!(bg_row.preemptions >= 1, "bg was never preempted: {bg_row:?}");
        assert_eq!(bg_row.iterations, 6);
        assert_eq!(bg_row.modeled_seconds, solo_modeled, "job-local timeline diverged");
        let (_, img) = outcome.images.iter().find(|(id, _)| id == "bg").expect("bg image");
        assert_eq!(img.data(), solo_img.data(), "preempted image diverged from solo");
        // The urgent job jumped the queue: it completed first.
        let u_row = r.jobs.iter().find(|j| j.id == "urgent").expect("urgent row");
        assert!(u_row.completed_seconds < bg_row.completed_seconds);
        assert_eq!(r.preemptions, bg_row.preemptions);
        assert!((r.fairness_jain - 1.0).abs() < 1.0);
    }

    /// The backfill starvation bound: `--backfill` lets a small
    /// low-priority job slip onto the spare device while the blocked
    /// queue head waits for its preempted victims — and the head's
    /// start, completion, and image do not move by a modeled second.
    #[test]
    fn backfill_fills_spare_devices_without_delaying_the_blocked_head() {
        let fleet = FleetSpec::titan_x_pcie(3);
        let mut bg = tiny_job("bg");
        bg.tenant = "archive".into();
        bg.devices = 2;
        bg.iters = 6;
        let mut urgent = tiny_job("urgent");
        urgent.tenant = "trauma".into();
        urgent.priority = 5;
        urgent.devices = 2;
        urgent.iters = 2;
        let mut fill = tiny_job("fill");
        fill.tenant = "research".into();
        fill.iters = 1;
        let (_, solo_modeled) = solo_run(&fleet, &bg).expect("solo");
        // urgent and fill both arrive at bg's mid-run: bg holds 2 of
        // 3 devices, urgent needs 2 and blocks, fill needs the 1
        // spare device urgent is not waiting for.
        urgent.arrival_seconds = 0.45 * solo_modeled;
        fill.arrival_seconds = urgent.arrival_seconds;
        let jobs = vec![bg, urgent, fill];
        let strict = Server::new(fleet.clone(), WorkloadSpec { jobs: jobs.clone() })
            .run(None)
            .expect("serve strict");
        let relaxed = Server::new(fleet, WorkloadSpec { jobs })
            .backfill(true)
            .run(None)
            .expect("serve backfill");
        let row = |o: &ServeOutcome, id: &str| {
            o.report.jobs.iter().find(|j| j.id == id).expect("row").clone()
        };
        // The head is untouched by backfill: same lease time, same
        // finish, same preemption of bg.
        let (us, ur) = (row(&strict, "urgent"), row(&relaxed, "urgent"));
        assert_eq!(us.first_start_seconds, ur.first_start_seconds, "head lease moved");
        assert_eq!(us.completed_seconds, ur.completed_seconds, "head finish moved");
        assert!(row(&relaxed, "bg").preemptions >= 1, "bg was never preempted");
        // The filler ran earlier — strictly, on the spare device
        // while the head was still waiting — instead of queuing
        // behind the blocked head.
        let (fs, fr) = (row(&strict, "fill"), row(&relaxed, "fill"));
        assert!(
            fr.first_start_seconds < fs.first_start_seconds,
            "backfill did not start fill earlier: {} vs {}",
            fr.first_start_seconds,
            fs.first_start_seconds
        );
        assert!(
            fr.first_start_seconds < ur.first_start_seconds,
            "fill should start while the head is still blocked"
        );
        // Scheduling policy moves timelines only, never pixels.
        for (id, img) in &strict.images {
            let (_, other) =
                relaxed.images.iter().find(|(i, _)| i == id).expect("image in both runs");
            assert_eq!(img.data(), other.data(), "{id} image diverged under backfill");
        }
    }

    #[test]
    fn admission_control_rejects_impossible_jobs() {
        let fleet = FleetSpec::titan_x_pcie(2);
        let ok = tiny_job("ok");
        let mut too_big = tiny_job("too-big");
        too_big.devices = 3;
        let mut no_work = tiny_job("no-work");
        no_work.iters = 0;
        let outcome = Server::new(fleet, WorkloadSpec { jobs: vec![ok, too_big, no_work] })
            .run(None)
            .expect("serve");
        let r = &outcome.report;
        assert_eq!((r.completed, r.rejected), (1, 2));
        assert_eq!(outcome.images.len(), 1);
        let tb = r.jobs.iter().find(|j| j.id == "too-big").expect("row");
        assert_eq!(tb.status, "rejected");
        assert!(tb.reason.contains("exceeds fleet size"));
        let nw = r.jobs.iter().find(|j| j.id == "no-work").expect("row");
        assert!(nw.reason.contains("zero iterations"));
        assert!(r.utilization > 0.0 && r.utilization <= 1.0);
        assert!(r.jobs_per_hour > 0.0);
    }

    #[test]
    fn streaming_ingest_hides_setup_but_not_the_result() {
        let fleet = FleetSpec::titan_x_pcie(1);
        let batch = tiny_job("batch");
        let mut streamed = tiny_job("streamed");
        // Slow enough that ingest dominates setup and overlap matters.
        streamed.view_rate = Some(10_000.0);
        let run = |j: JobSpec| {
            Server::new(fleet.clone(), WorkloadSpec { jobs: vec![j] }).run(None).expect("serve")
        };
        let b = run(batch);
        let s = run(streamed);
        let br = &b.report.jobs[0];
        let sr = &s.report.jobs[0];
        assert!(sr.ready_seconds > br.ready_seconds, "streaming must wait for views");
        assert!(sr.ingest_hidden_seconds > 0.0, "overlap hid nothing: {sr:?}");
        // Ingest mode shifts the timeline only; the reconstruction is
        // built from the same completed sinogram either way.
        assert_eq!(b.images[0].1.data(), s.images[0].1.data());
    }

    #[test]
    fn profile_carries_job_records_and_remapped_spans() {
        let fleet = FleetSpec::titan_x_pcie(2);
        let mut a = tiny_job("a");
        a.devices = 2;
        a.iters = 2;
        let mut b = tiny_job("b");
        b.tenant = "other".into();
        b.iters = 1;
        let sink = Arc::new(RecordingSink::new());
        Server::new(fleet, WorkloadSpec { jobs: vec![a, b] }).run(Some(&sink)).expect("serve");
        let events: Vec<(String, String)> =
            sink.jobs().iter().map(|r| (r.job.clone(), r.event.clone())).collect();
        for ev in ["submitted", "ingest_complete", "started", "completed"] {
            assert!(
                events.contains(&("a".to_string(), ev.to_string())),
                "missing {ev} for job a in {events:?}"
            );
        }
        let spans = sink.spans();
        assert!(!spans.is_empty(), "leased drivers emitted no kernel spans");
        assert!(spans.iter().all(|s| s.device < 2), "span on a device outside the fleet");
        let report = sink.report("serve");
        assert_eq!(report.totals.jobs, 2);
        assert!(report.to_json_pretty().contains("\"schema_version\": 7"));
    }
}
