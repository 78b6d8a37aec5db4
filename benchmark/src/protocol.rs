//! The reply shapes of `docs/PROTOCOL.md` for the four scripted commands.

/// A well-formed reply line to `query`, `topk`, `insert` or `delete`.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    Hit { id: u64, ip: f64 },
    Miss,
    Hits(Vec<(u64, f64)>),
    None,
    Inserted(u64),
    Deleted(u64),
}

/// `+0.850000`: explicit sign, six decimals.
fn inner_product(text: &str) -> Option<f64> {
    let digits = text.strip_prefix('+').or_else(|| text.strip_prefix('-'))?;
    let (whole, decimals) = digits.split_once('.')?;
    let numeric = |s: &str| !s.is_empty() && s.bytes().all(|b| b.is_ascii_digit());
    (numeric(whole) && numeric(decimals) && decimals.len() == 6).then(|| text.parse().ok())?
}

fn id(text: &str) -> Option<u64> {
    (!text.is_empty() && text.bytes().all(|b| b.is_ascii_digit())).then(|| text.parse().ok())?
}

/// Parses the reply line to a `command` request (without its newline).
/// Anything the protocol document does not list for that command is an
/// error — an `error: ...` line included.
pub fn parse_reply(command: &str, line: &str) -> Result<Reply, String> {
    let malformed = || format!("malformed reply to `{command}`: `{line}`");
    if line.starts_with("error:") {
        return Err(format!("`{command}` answered `{line}`"));
    }
    let (word, rest) = line.split_once(' ').unwrap_or((line, ""));
    let reply = match (command, word) {
        ("query", "miss") if rest.is_empty() => Some(Reply::Miss),
        ("query", "hit") => rest.split_once(' ').and_then(|(i, ip)| {
            Some(Reply::Hit {
                id: id(i)?,
                ip: inner_product(ip)?,
            })
        }),
        ("topk", "none") if rest.is_empty() => Some(Reply::None),
        ("topk", "hits") => rest
            .split(',')
            .map(|hit| {
                hit.split_once(':')
                    .and_then(|(i, ip)| Some((id(i)?, inner_product(ip)?)))
            })
            .collect::<Option<Vec<_>>>()
            .map(Reply::Hits),
        ("insert", "inserted") => id(rest).map(Reply::Inserted),
        ("delete", "deleted") => id(rest).map(Reply::Deleted),
        _ => None,
    };
    reply.ok_or_else(malformed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_every_documented_shape_of_the_four_commands() {
        assert_eq!(
            parse_reply("query", "hit 0 +0.900000"),
            Ok(Reply::Hit { id: 0, ip: 0.9 })
        );
        assert_eq!(
            parse_reply("query", "hit 19999 -0.500000"),
            Ok(Reply::Hit {
                id: 19999,
                ip: -0.5
            })
        );
        assert_eq!(parse_reply("query", "miss"), Ok(Reply::Miss));
        assert_eq!(
            parse_reply("topk", "hits 3:+0.850000,17:+0.612345"),
            Ok(Reply::Hits(vec![(3, 0.85), (17, 0.612345)]))
        );
        assert_eq!(
            parse_reply("topk", "hits 3:+1.000000"),
            Ok(Reply::Hits(vec![(3, 1.0)]))
        );
        assert_eq!(parse_reply("topk", "none"), Ok(Reply::None));
        assert_eq!(
            parse_reply("insert", "inserted 20000"),
            Ok(Reply::Inserted(20000))
        );
        assert_eq!(
            parse_reply("delete", "deleted 20000"),
            Ok(Reply::Deleted(20000))
        );
    }

    #[test]
    fn rejects_error_lines_and_everything_undocumented() {
        for command in ["query", "topk", "insert", "delete"] {
            let err = parse_reply(command, "error: usage error: `x` is not a number").unwrap_err();
            assert!(err.contains("error:"), "{err}");
            assert!(parse_reply(command, "").is_err());
            assert!(parse_reply(command, "bye").is_err());
        }
        for (command, line) in [
            ("query", "hit 0 0.900000"),   // no sign
            ("query", "hit 0 +0.9"),       // not six decimals
            ("query", "hit x +0.900000"),  // id is not a number
            ("query", "hit 0"),            // no inner product
            ("query", "miss 1"),           // trailing field
            ("query", "hits 0:+0.900000"), // another command's shape
            ("topk", "hits "),             // empty list
            ("topk", "hits 3:+0.850000,"), // dangling comma
            ("topk", "hits 3+0.850000"),   // no colon
            ("topk", "hit 3 +0.850000"),   // another command's shape
            ("insert", "inserted"),        // no id
            ("insert", "inserted -1"),     // not an id
            ("delete", "deleted 1 2"),     // trailing field
            ("delete", "inserted 1"),      // another command's shape
        ] {
            assert!(
                parse_reply(command, line).is_err(),
                "`{line}` accepted for `{command}`"
            );
        }
    }
}
