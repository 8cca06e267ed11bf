//! Writing a command-line tool's report to stdout.

use std::io::{ErrorKind, Write};

/// Write `text` to stdout and flush it, where `print!` would panic on a
/// write error. A reader that closed the pipe early (`| head`, a pager
/// quit) has read all it wants, so that is no error: the rest of the
/// text is dropped quietly, and the process keeps its own exit status,
/// 0 for a run that succeeded. Any other write error ends the process
/// with exit code 2 and the error on stderr.
pub fn write(text: &str) {
    let mut stdout = std::io::stdout().lock();
    match stdout
        .write_all(text.as_bytes())
        .and_then(|()| stdout.flush())
    {
        Err(e) if e.kind() != ErrorKind::BrokenPipe => {
            drop(stdout);
            eprintln!("error: writing stdout: {e}");
            std::process::exit(2);
        }
        _ => {}
    }
}
