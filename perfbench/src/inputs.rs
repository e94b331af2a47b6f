//! Everything the server sees is generated here from the run's seed:
//! the registry corpus, search queries, PEs written during the run and
//! job sizes.

use laminar_json::{jobj, Value};

/// SplitMix64: small, seedable, and the same on every platform.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + self.below((hi - lo + 1) as u64) as i64
    }

    pub fn pick<'a>(&mut self, items: &[&'a str]) -> &'a str {
        items[self.below(items.len() as u64) as usize]
    }
}

/// The registry user that owns the corpus and issues every search and
/// write.
pub const USER: &str = "bench";

/// PEs seeded into the registry before a run.
pub const CORPUS_PES: usize = 5000;

/// One corpus PE in ten is registered without a description, so the
/// summariser writes it.
const UNDESCRIBED_EVERY: u64 = 10;

const WORDS: [&str; 24] = [
    "prime",
    "stream",
    "sensor",
    "counter",
    "filter",
    "window",
    "median",
    "fourier",
    "anomaly",
    "threshold",
    "merge",
    "split",
    "average",
    "token",
    "packet",
    "image",
    "matrix",
    "signal",
    "batch",
    "alert",
    "cluster",
    "spectrum",
    "quantile",
    "wavelet",
];

/// A PE to register: its name, LamScript source and optional description.
#[derive(Debug, Clone)]
pub struct PeSpec {
    pub name: String,
    pub source: String,
    pub description: Option<String>,
}

fn capitalised(w: &str) -> String {
    let mut c = w.chars();
    c.next().map(|f| f.to_ascii_uppercase().to_string() + c.as_str()).unwrap_or_default()
}

/// A PE drawn from four shapes (map, filter, producer, printer) with
/// seeded constants and vocabulary.
pub fn pe_spec(rng: &mut Rng, name_suffix: &str, described: bool) -> PeSpec {
    let (a, b) = (rng.range(2, 9), rng.range(0, 7));
    let (w1, w2, w3) = (rng.pick(&WORDS), rng.pick(&WORDS), rng.pick(&WORDS));
    let name = format!("{}{}{name_suffix}", capitalised(w1), capitalised(w2));
    let source = match rng.below(4) {
        0 => format!("pe {name} : iterative {{ input x; output output; process {{ emit(x * {a} + {b}); }} }}"),
        1 => format!(
            "pe {name} : iterative {{ input x; output output; process {{ if x % {a} == {b} {{ emit(x); }} }} }}"
        ),
        2 => format!("pe {name} : producer {{ output output; process {{ emit(iteration * {a} + {b}); }} }}"),
        _ => format!("pe {name} : consumer {{ input x; process {{ print(\"{w3}\", x + {a}); }} }}"),
    };
    let description = described.then(|| format!("{w1} {w2} {w3} processor"));
    PeSpec { name, source, description }
}

/// The seeded corpus: [`CORPUS_PES`] PEs with unique names.
pub fn corpus(seed: u64) -> Vec<PeSpec> {
    let mut rng = Rng::new(seed);
    (0..CORPUS_PES)
        .map(|i| {
            let described = rng.below(UNDESCRIBED_EVERY) != 0;
            pe_spec(&mut rng, &format!("C{i}"), described)
        })
        .collect()
}

/// The three registry search modes the interactive users issue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Natural-language query ranked by description embedding.
    Semantic,
    /// Code fragment ranked by code embedding (completion).
    Code,
    /// Literal text match over PEs and workflows.
    Text,
}

impl Mode {
    pub const ALL: [Mode; 3] = [Mode::Semantic, Mode::Code, Mode::Text];

    pub fn name(self) -> &'static str {
        match self {
            Mode::Semantic => "semantic",
            Mode::Code => "code",
            Mode::Text => "text",
        }
    }

    /// `(search type path segment, queryType body field)`.
    pub fn wire(self) -> (&'static str, &'static str) {
        match self {
            Mode::Semantic => ("pe", "text"),
            Mode::Code => ("pe", "code"),
            Mode::Text => ("both", "text"),
        }
    }
}

/// A query for `mode`.
pub fn query(rng: &mut Rng, mode: Mode) -> String {
    match mode {
        Mode::Semantic => format!(
            "{} {} {}",
            rng.pick(&WORDS),
            rng.pick(&WORDS),
            rng.pick(&["processor", "values", "data"])
        ),
        Mode::Code => match rng.below(3) {
            0 => format!("emit(x * {} +", rng.range(2, 9)),
            1 => format!("if x % {} == {} {{ emit(x); }}", rng.range(2, 9), rng.range(0, 7)),
            _ => format!("print(\"{}\", x", rng.pick(&WORDS)),
        },
        Mode::Text => rng.pick(&WORDS).to_string(),
    }
}

/// The search request body for `mode`.
pub fn search_body(mode: Mode, force_scan: bool) -> Value {
    let mut body = jobj! { "queryType" => mode.wire().1 };
    if force_scan {
        body.set("forceScan", true);
    }
    body
}

/// Primes up to `n`: what an IsPrime job over `1..=n` must print.
pub fn primes_upto(n: i64) -> Vec<i64> {
    (2..=n).filter(|&k| laminar_workloads::isprime::is_prime(k)).collect()
}

/// The print line IsPrime's last PE writes for prime `p`.
pub fn prime_line(p: i64) -> String {
    format!("the num {p} is prime")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let (a, b) = (corpus(7), corpus(7));
        assert_eq!(a.len(), CORPUS_PES);
        assert!(a.iter().zip(&b).all(|(x, y)| x.source == y.source && x.description == y.description));
        assert_ne!(corpus(8)[0].source, a[0].source);
        let names: std::collections::HashSet<_> = a.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names.len(), CORPUS_PES, "corpus names are unique");
    }

    #[test]
    fn corpus_sources_parse() {
        for pe in corpus(3).iter().take(200) {
            laminar_script::parse_script(&pe.source).unwrap_or_else(|e| panic!("{}: {e}", pe.source));
        }
    }

    #[test]
    fn primes_reference() {
        assert_eq!(primes_upto(20), vec![2, 3, 5, 7, 11, 13, 17, 19]);
    }
}
