// link may import channel and nothing else: reaching up to core breaks
// the layering.
package link

import (
	_ "wirelesshart/internal/channel"
	_ "wirelesshart/internal/core" // want `import of wirelesshart/internal/core: not a registered edge of the internal/link layer`
)
