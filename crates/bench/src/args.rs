//! The command line every binary shares: optional positional values in
//! a fixed order (`[workers] [seed]` for most), plus flags, with or
//! without a value, anywhere on the line.

use std::collections::VecDeque;
use std::str::FromStr;

/// A binary's command-line arguments. A missing positional value takes
/// its default. An unparsable value, a flag missing its value, a worker
/// count below two, a zero count, or a positional value the binary does
/// not read prints the usage line to stderr and exits with status 2.
#[derive(Debug)]
pub struct Args {
    usage: &'static str,
    rest: VecDeque<String>,
}

impl Args {
    /// The process's arguments. `usage` is the synopsis printed on a bad
    /// value, e.g. `"table1 [workers] [seed] [--json]"`.
    pub fn from_env(usage: &'static str) -> Args {
        Args {
            usage,
            rest: std::env::args().skip(1).collect(),
        }
    }

    /// Whether `flag` appears anywhere on the line; it is removed from
    /// the positional values.
    pub fn flag(&mut self, flag: &str) -> bool {
        let before = self.rest.len();
        self.rest.retain(|a| a != flag);
        self.rest.len() != before
    }

    /// The value after `flag` (`--seed 7`), wherever it appears on the
    /// line, or `None` when the line has no `flag`; both are removed from
    /// the positional values.
    pub fn value<T: FromStr>(&mut self, flag: &str) -> Option<T> {
        let i = self.rest.iter().position(|a| a == flag)?;
        self.rest.remove(i);
        match self.rest.remove(i) {
            Some(s) => Some(self.parse(&s)),
            None => self.exit(&format!("{flag} needs a value")),
        }
    }

    /// The next positional value, or `default` when the line has no more.
    pub fn next_or<T: FromStr>(&mut self, default: T) -> T {
        match self.rest.pop_front() {
            None => default,
            Some(s) => self.parse(&s),
        }
    }

    /// The workloads' worker-thread count: the value of `--workers` if
    /// the line has one, else the next positional value (default 4).
    /// Every workload needs at least two threads.
    pub fn workers(&mut self) -> usize {
        let workers = self.value("--workers").unwrap_or_else(|| self.next_or(4));
        if workers < 2 {
            self.exit("workers must be at least 2 (the workloads need concurrency)");
        }
        workers
    }

    /// The next positional value as a count of runs or seeds, at least
    /// one.
    pub fn count(&mut self, default: u64) -> u64 {
        let n = self.next_or(default);
        if n == 0 {
            self.exit("the count must be at least 1");
        }
        n
    }

    /// Ends the line: a positional value left unread is an error.
    pub fn finish(self) {
        if let Some(extra) = self.rest.front() {
            self.exit(&format!("unexpected argument {extra:?}"));
        }
    }

    fn parse<T: FromStr>(&self, s: &str) -> T {
        s.parse()
            .unwrap_or_else(|_| self.exit(&format!("cannot parse {s:?}")))
    }

    /// Refuses the line: prints `problem` and the usage line to stderr
    /// and exits with status 2.
    pub fn exit(&self, problem: &str) -> ! {
        eprintln!("{problem}\nusage: {}", self.usage);
        std::process::exit(2);
    }
}
