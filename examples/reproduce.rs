//! Prints the reproduction report, every figure and table of the paper's evaluation:
//!
//! ```text
//! cargo run --release --example reproduce > REPRO.md
//! ```

fn main() -> Result<(), realm::core::CoreError> {
    print!("{}", realm::core::report::reproduce()?);
    Ok(())
}
